// Process core: construction, fd table, path-argument handling, tracing.
#include "syscall/process.hpp"

#include <utility>

namespace iocov::syscall {

using abi::Err;

trace::Arg targ(const char* name, std::int64_t v) {
    return {name, trace::ArgValue{v}};
}

trace::Arg uarg(const char* name, std::uint64_t v) {
    return {name, trace::ArgValue{v}};
}

trace::Arg sarg(const char* name, const char* s) {
    return {name, trace::ArgValue{std::string(s ? s : "<fault>")}};
}

Kernel::Kernel(vfs::FileSystem& fs, trace::TraceSink* sink,
               KernelLimits limits)
    : fs_(fs), sink_(sink), limits_(limits) {}

Process Kernel::make_process(std::uint32_t pid, vfs::Credentials cred) {
    return Process(*this, pid, cred);
}

Process::Process(Kernel& kernel, std::uint32_t pid, vfs::Credentials cred)
    : kernel_(kernel), pid_(pid), cred_(cred) {}

Process::~Process() {
    // Exit: release open file descriptions (anonymous inodes included).
    for (auto& [fd, desc] : fds_) {
        if (desc.anonymous) kernel_.fs_.release_anonymous(desc.ino);
        if (kernel_.open_files_ > 0) --kernel_.open_files_;
    }
}

void Process::emit(const char* name, std::vector<trace::Arg> args,
                   std::int64_t ret) {
    if (!kernel_.sink_) return;
    trace::TraceEvent ev;
    ev.seq = kernel_.next_seq();
    ev.pid = pid_;
    ev.tid = pid_;
    ev.syscall = name;
    ev.args = std::move(args);
    ev.ret = ret;
    kernel_.sink_->emit(ev);
}

std::int64_t Process::alloc_fd() {
    if (fds_.size() >= kernel_.limits_.max_fds_per_process)
        return abi::fail(Err::EMFILE_);
    if (kernel_.file_table_full()) return abi::fail(Err::ENFILE_);
    // Lowest-numbered free fd, as POSIX requires.  fds 0-2 are reserved
    // for the (unmodeled) standard streams.
    int fd = 3;
    for (const auto& [used, desc] : fds_) {
        if (used > fd) break;
        if (used == fd) ++fd;
    }
    return fd;
}

FileDescription* Process::lookup_fd(int fd) {
    auto it = fds_.find(fd);
    return it == fds_.end() ? nullptr : &it->second;
}

void Process::drop_fd_entry(int fd) {
    auto it = fds_.find(fd);
    if (it == fds_.end()) return;
    if (it->second.anonymous) kernel_.fs_.release_anonymous(it->second.ino);
    fds_.erase(it);
    if (kernel_.open_files_ > 0) --kernel_.open_files_;
}

Process::PathArg Process::path_arg(int dfd, const char* pathname) const {
    PathArg out;
    if (!pathname) {
        out.err = abi::fail(Err::EFAULT_);
        return out;
    }
    out.path = pathname;
    if (!out.path.empty() && out.path.front() == '/') {
        out.base = vfs::kRootInode;
        return out;
    }
    if (dfd == abi::AT_FDCWD) {
        out.base = cwd_;
        return out;
    }
    auto it = fds_.find(dfd);
    if (it == fds_.end()) {
        out.err = abi::fail(Err::EBADF_);
        return out;
    }
    if (!it->second.is_directory) {
        out.err = abi::fail(Err::ENOTDIR_);
        return out;
    }
    out.base = it->second.ino;
    return out;
}

}  // namespace iocov::syscall
