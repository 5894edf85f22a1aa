#include "exec/alloc_hook.hpp"

#include <atomic>
#include <cstdlib>
#include <new>

// Sanitizers interpose malloc themselves; replacing operator new under
// them breaks their bookkeeping, so the hook compiles away.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define IOCOV_ALLOC_HOOK 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define IOCOV_ALLOC_HOOK 0
#else
#define IOCOV_ALLOC_HOOK 1
#endif
#else
#define IOCOV_ALLOC_HOOK 1
#endif

namespace iocov::exec {
namespace {

// Plain integer (not a class type) so reading it never allocates and
// thread start-up needs no dynamic initialization.
thread_local std::uint64_t t_alloc_count = 0;
thread_local std::uint64_t t_alloc_bytes = 0;

std::atomic<std::uint64_t> g_retired_bytes{0};

}  // namespace

bool has_allocation_counting() { return IOCOV_ALLOC_HOOK != 0; }

std::uint64_t thread_allocation_count() { return t_alloc_count; }

std::uint64_t thread_allocated_bytes() { return t_alloc_bytes; }

void retire_thread_allocations() {
    g_retired_bytes.fetch_add(t_alloc_bytes, std::memory_order_relaxed);
    t_alloc_bytes = 0;
}

std::uint64_t retired_allocated_bytes() {
    return g_retired_bytes.load(std::memory_order_relaxed);
}

}  // namespace iocov::exec

#if IOCOV_ALLOC_HOOK

namespace {

void note_alloc(std::size_t size) {
    ++iocov::exec::t_alloc_count;
    iocov::exec::t_alloc_bytes += size;
}

void* counted_alloc(std::size_t size) {
    note_alloc(size);
    for (;;) {
        if (void* p = std::malloc(size ? size : 1)) return p;
        std::new_handler handler = std::get_new_handler();
        if (!handler) throw std::bad_alloc();
        handler();
    }
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
    note_alloc(size);
    return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
    note_alloc(size);
    return std::malloc(size ? size : 1);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
    std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
    std::free(p);
}

#endif  // IOCOV_ALLOC_HOOK
