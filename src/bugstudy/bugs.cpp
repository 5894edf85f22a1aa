// The 70-bug corpus (51 ext4 + 19 btrfs), modeled on the recurring
// shapes of the paper's 2022 commit study.
#include "bugstudy/bug.hpp"

#include "abi/errno.hpp"
#include "abi/fcntl.hpp"
#include "abi/seek.hpp"
#include "abi/stat_mode.hpp"
#include "abi/xattr.hpp"

namespace iocov::bugstudy {
namespace {

using core::CanonicalView;
using Trig = std::function<bool(const CanonicalView&)>;

// ---- trigger building blocks ---------------------------------------------

Trig base(const char* b, Trig inner) {
    return [b, inner](const CanonicalView& e) {
        return e.spec->base == b && inner(e);
    };
}

// Argument predicates see a variant's implied argument too.
Trig uarg_pred(const char* key, std::function<bool(std::uint64_t)> p) {
    return [key, p](const CanonicalView& e) {
        const trace::ArgValue* v = e.find(key);
        const auto u = v ? trace::uint_value(*v) : std::nullopt;
        return u && p(*u);
    };
}

Trig iarg_pred(const char* key, std::function<bool(std::int64_t)> p) {
    return [key, p](const CanonicalView& e) {
        const trace::ArgValue* v = e.find(key);
        const auto i = v ? trace::int_value(*v) : std::nullopt;
        return i && p(*i);
    };
}

Trig flags_all(std::uint32_t mask) {
    return uarg_pred("flags", [mask](std::uint64_t f) {
        return (f & mask) == mask;
    });
}

Trig ret_is(abi::Err err) {
    return [err](const CanonicalView& e) {
        return e.event->ret == abi::fail(err);
    };
}

Trig ok() {
    return [](const CanonicalView& e) { return e.event->ok(); };
}

Trig both(Trig a, Trig b) {
    return [a, b](const CanonicalView& e) { return a(e) && b(e); };
}

Trig never() {
    return [](const CanonicalView&) { return false; };
}

// ---- site pools -----------------------------------------------------------
//
// "Hit" sites are executed by the simulated xfstests run; "unhit" sites
// exist in the instrumented VFS but no simulated suite reaches them.
// (tests/bugstudy assert this empirically.)

constexpr const char* kHitFns[] = {
    "ext4_file_write_iter", "ext4_da_write_begin", "ext4_file_read_iter",
    "ext4_get_branch",      "ext4_truncate",       "ext4_setattr",
    "ext4_mkdir",           "ext4_create",         "ext4_unlink",
    "ext4_xattr_set",       "ext4_xattr_ibody_set", "ext4_new_inode",
    "vfs_path_lookup",      "vfs_follow_link",     "do_sys_open",
};
constexpr const char* kHitBranches[] = {
    "ext4_xattr_ibody_set:enospc",
    "ext4_xattr_ibody_set:fits",
    "generic_write_checks:efbig",
    "ext4_should_retry_alloc:enospc",
};
constexpr const char* kUnhitFns[] = {
    "ext4_rename",
    "ext4_link",
    "ext4_tmpfile",
};
constexpr const char* kUnhitBranches[] = {
    "ext4_rmdir:notempty",       "vfs_follow_link:nosymlinks",
    "generic_file_open:eoverflow", "dquot_alloc_block:edquot",
    "ext4_new_inode:enospc",
};

const char* hit_fn(std::size_t i) {
    return kHitFns[i % std::size(kHitFns)];
}
const char* hit_branch(std::size_t i) {
    return kHitBranches[i % std::size(kHitBranches)];
}
const char* unhit_fn(std::size_t i) {
    return kUnhitFns[i % std::size(kUnhitFns)];
}
const char* unhit_branch(std::size_t i) {
    return kUnhitBranches[i % std::size(kUnhitBranches)];
}

struct Corpus {
    std::vector<Bug> bugs;
    int seq = 0;

    void add(const char* fs, const char* desc, const char* fn,
             const char* line, const char* branch, bool input, bool output,
             Trig trig) {
        Bug b;
        char id[32];
        std::snprintf(id, sizeof id, "%s-22-%03d", fs, ++seq);
        b.id = id;
        b.fs = fs;
        b.description = desc;
        b.function_site = fn ? fn : "";
        b.line_site = line ? line : "";
        b.branch_site = branch ? branch : "";
        b.input_bug = input;
        b.output_bug = output;
        b.trigger = std::move(trig);
        bugs.push_back(std::move(b));
    }
};

std::vector<Bug> build_corpus() {
    using abi::Err;
    using namespace iocov::abi;  // NOLINT

    Corpus c;

    // =====================================================================
    // Category A — 18 bugs the simulated xfstests run DOES detect: their
    // triggers are inputs/outputs the suite actually exercises.
    // =====================================================================

    // A: both input- and output-related (10).
    c.add("ext4", "O_CREAT|O_EXCL on existing inode corrupts dir index "
                  "before returning EEXIST",
          "ext4_create", "ext4_create", "ext4_xattr_ibody_set:fits", true,
          true,
          base("open", both(flags_all(O_CREAT | O_EXCL),
                            ret_is(Err::EEXIST_))));
    c.add("ext4", "delalloc accounting leak when write hits ENOSPC",
          "ext4_da_write_begin", "ext4_da_write_begin",
          "ext4_should_retry_alloc:enospc", true, true,
          base("write", ret_is(Err::ENOSPC_)));
    c.add("ext4", "truncate past s_maxbytes reports wrong size in EFBIG "
                  "path",
          "ext4_truncate", "ext4_truncate", "generic_write_checks:efbig",
          true, true, base("truncate", ret_is(Err::EFBIG_)));
    c.add("ext4", "symlink-loop lookup leaks path ref before ELOOP",
          "vfs_follow_link", "vfs_follow_link",
          "ext4_xattr_ibody_set:fits", true, true,
          base("open", ret_is(Err::ELOOP_)));
    c.add("ext4", "name-length check off by one on ENAMETOOLONG exit",
          "vfs_path_lookup", "vfs_path_lookup",
          "generic_write_checks:efbig", true, true,
          base("open", ret_is(Err::ENAMETOOLONG_)));
    c.add("ext4", "lseek with negative offset mangles f_pos before EINVAL",
          "ext4_file_read_iter", "ext4_file_read_iter",
          "ext4_xattr_ibody_set:fits", true, true,
          base("lseek", both(iarg_pred("offset",
                                       [](std::int64_t o) { return o < 0; }),
                             ret_is(Err::EINVAL_))));
    c.add("ext4", "XATTR_REPLACE on absent attr unwinds journal handle "
                  "twice (ENODATA path)",
          "ext4_xattr_set", "ext4_xattr_set", "ext4_xattr_ibody_set:fits",
          true, true,
          base("setxattr", both(iarg_pred("flags",
                                          [](std::int64_t f) {
                                              return f == XATTR_REPLACE_;
                                          }),
                                ret_is(Err::ENODATA_))));
    c.add("btrfs", "size-probe getxattr (size=0) returns stale length "
                   "after concurrent shrink",
          "ext4_xattr_set", "ext4_xattr_set", "ext4_xattr_ibody_set:fits",
          true, true,
          base("getxattr", both(uarg_pred("size",
                                          [](std::uint64_t s) {
                                              return s == 0;
                                          }),
                                ok())));
    c.add("btrfs", "mkdir with mode 0 plants wrong ACL on success path",
          "ext4_mkdir", "ext4_mkdir", "ext4_xattr_ibody_set:fits", true,
          true,
          base("mkdir", both(uarg_pred("mode",
                                       [](std::uint64_t m) {
                                           return (m & 0777) == 0;
                                       }),
                             ok())));
    c.add("btrfs", "readahead state corrupted by >=16 MiB reads that "
                   "succeed",
          "ext4_file_read_iter", "ext4_file_read_iter",
          "ext4_should_retry_alloc:enospc", true, true,
          base("read", both(uarg_pred("count",
                                      [](std::uint64_t n) {
                                          return n >= (1ULL << 24);
                                      }),
                            ok())));

    // A: input-only (6).
    c.add("ext4", "zero-length setxattr value dereferences NULL ea_inode",
          "ext4_xattr_ibody_set", "ext4_xattr_ibody_set",
          "ext4_xattr_ibody_set:fits", true, false,
          base("setxattr",
               uarg_pred("size", [](std::uint64_t s) { return s == 0; })));
    c.add("ext4", "zero-byte write spuriously marks inode dirty",
          "ext4_file_write_iter", "ext4_file_write_iter",
          "generic_write_checks:efbig", true, false,
          base("write",
               uarg_pred("count", [](std::uint64_t n) { return n == 0; })));
    c.add("ext4", "O_SYNC open skips journal commit barrier",
          "do_sys_open", "do_sys_open", "ext4_xattr_ibody_set:fits", true,
          false, base("open", flags_all(O_SYNC)));
    c.add("ext4", "SEEK_HOLE misreports hole start inside uninit extent",
          "ext4_file_read_iter", "ext4_file_read_iter",
          "ext4_should_retry_alloc:enospc", true, false,
          base("lseek", iarg_pred("whence", [](std::int64_t w) {
                   return w == SEEK_HOLE_;
               })));
    c.add("btrfs", "truncate to 0 races dealloc against concurrent scrub",
          "ext4_truncate", "ext4_truncate", "generic_write_checks:efbig",
          true, false,
          base("truncate",
               iarg_pred("length", [](std::int64_t l) { return l == 0; })));
    c.add("btrfs", "chmod with setuid bit drops cached capability state",
          "ext4_setattr", "ext4_setattr", "ext4_xattr_ibody_set:fits", true,
          false, base("chmod", uarg_pred("mode", [](std::uint64_t m) {
                          return (m & S_ISUID) != 0;
                      })));

    // A: output-only (2).
    c.add("ext4", "close on bad fd updates fd-table stats before EBADF",
          "vfs_path_lookup", "vfs_path_lookup",
          "ext4_xattr_ibody_set:fits", false, true,
          base("close", ret_is(Err::EBADF_)));
    c.add("ext4", "getxattr short-buffer exit returns ERANGE but leaks "
                  "value prefix",
          "ext4_xattr_set", "ext4_xattr_set", "ext4_xattr_ibody_set:fits",
          false, true, base("getxattr", ret_is(Err::ERANGE_)));

    // =====================================================================
    // Category B — 20 bugs whose function, line, AND branch regions are
    // covered by the suite, yet the triggering input/output never occurs:
    // the paper's "covered but missed" core.  (The Fig. 1 bug leads.)
    // =====================================================================

    struct BTag {
        bool in, out;
    };
    // Tag layout across B (20): 9 both, 5 input-only, 3 output-only,
    // 3 neither.
    const BTag b_tags[20] = {
        {true, true},  {true, true},  {true, true},  {true, true},
        {true, true},  {true, true},  {true, true},  {true, true},
        {true, true},  {true, false}, {true, false}, {true, false},
        {true, false}, {true, false}, {false, true}, {false, true},
        {false, true}, {false, false}, {false, false}, {false, false},
    };

    // B-1: the paper's Fig. 1 bug, verbatim in spirit.
    c.add("ext4", "use-after-free in ext4_xattr_set_entry when lsetxattr "
                  "uses the maximum allowed size (min_offs overflow); "
                  "fixed by EXT4_INODE_HAS_XATTR_SPACE check",
          "ext4_xattr_ibody_set", "ext4_xattr_ibody_set",
          "ext4_xattr_ibody_set:enospc", true, true,
          base("setxattr", uarg_pred("size", [](std::uint64_t s) {
                   return s == XATTR_SIZE_MAX_;
               })));

    const Trig b_trigs[19] = {
        // both
        base("write", both(uarg_pred("count",
                                     [](std::uint64_t n) {
                                         return n >= (1ULL << 30);
                                     }),
                           ok())),
        base("open", both(flags_all(O_TMPFILE | O_RDWR), ok())),
        base("open", ret_is(Err::EOVERFLOW_)),
        base("write", ret_is(Err::EDQUOT_)),
        base("open", ret_is(Err::ENOMEM_)),
        base("truncate", both(iarg_pred("length",
                                        [](std::int64_t l) {
                                            return l >= (1LL << 40);
                                        }),
                              ok())),
        base("read", ret_is(Err::EIO_)),
        base("open", ret_is(Err::EINTR_)),
        // input-only
        base("open", flags_all(O_LARGEFILE)),
        base("open", flags_all(O_PATH)),
        base("read", uarg_pred("count",
                               [](std::uint64_t n) {
                                   return n >= (1ULL << 25);
                               })),
        base("setxattr", iarg_pred("flags",
                                   [](std::int64_t f) {
                                       return f == (XATTR_CREATE_ |
                                                    XATTR_REPLACE_);
                                   })),
        base("chmod", uarg_pred("mode",
                                [](std::uint64_t m) {
                                    return (m & 07777) == 07777;
                                })),
        // output-only
        base("open", ret_is(Err::EAGAIN_)),
        base("write", ret_is(Err::EPIPE_)),
        base("close", ret_is(Err::EINTR_)),
        // neither (concurrency/timing bugs code coverage also misses)
        never(),
        never(),
        never(),
    };
    const char* b_descs[19] = {
        "1 GiB-plus buffered write overflows reserved-extent counter",
        "O_TMPFILE inode escapes orphan list on success",
        "EOVERFLOW exit path leaks file reference on 32-bit opens",
        "quota-exceeded write path double-frees dquot",
        "OOM during open leaves half-built file table entry",
        "terabyte truncate succeeds but leaves stale extent tail",
        "media-error read path returns wrong byte count with EIO",
        "signal during open leaks O_CREAT inode (EINTR path)",
        "O_LARGEFILE handling bypasses generic_file_open check",
        "O_PATH descriptor grants unintended ioctl surface",
        "32 MiB readahead window misaccounts page refs",
        "XATTR_CREATE|XATTR_REPLACE combination bypasses validation",
        "mode 07777 chmod grants sticky+setid combination unsafely",
        "RESOLVE_CACHED retry path (EAGAIN) double-completes io_uring op",
        "fifo writer EPIPE path signals wrong task",
        "close interrupted by signal re-runs file_operations release",
        "race between write and punch_hole corrupts extent tree",
        "journal commit vs truncate race loses ordered data",
        "writeback vs inode eviction race (no input dependency)",
    };
    for (int i = 0; i < 19; ++i) {
        const char* fs = (i % 4 == 3 || i == 16) ? "btrfs" : "ext4";
        c.add(fs, b_descs[i], hit_fn(static_cast<std::size_t>(i)),
              hit_fn(static_cast<std::size_t>(i)),
              hit_branch(static_cast<std::size_t>(i)),
              b_tags[i + 1].in, b_tags[i + 1].out, b_trigs[i]);
    }

    // =====================================================================
    // Category C — 17 bugs in covered functions and lines whose guarding
    // BRANCH never executes (branch coverage correctly flags these; line
    // coverage does not — the paper's 29% vs 53% gap).
    // =====================================================================
    const BTag c_tags[17] = {
        {true, true},  {true, true},  {true, true},  {true, true},
        {true, true},  {true, true},  {true, false}, {true, false},
        {true, false}, {true, false}, {false, true}, {false, true},
        {false, false}, {false, false}, {false, false}, {false, false},
        {false, false},
    };
    const Trig c_trigs[17] = {
        base("open", ret_is(Err::EDQUOT_)),
        base("mkdir", ret_is(Err::EMLINK_)),
        base("open", ret_is(Err::ENFILE_)),
        base("open", both(flags_all(O_NOATIME), ok())),
        base("mkdir", ret_is(Err::ENOSPC_)),
        base("setxattr", ret_is(Err::EDQUOT_)),
        base("open", flags_all(O_NOCTTY)),
        base("open", flags_all(O_ASYNC)),
        base("mkdir", uarg_pred("mode",
                                [](std::uint64_t m) {
                                    return (m & S_ISUID) != 0;
                                })),
        base("lseek", both(iarg_pred("whence",
                                     [](std::int64_t w) {
                                         return w == SEEK_END_;
                                     }),
                           iarg_pred("offset",
                                     [](std::int64_t o) {
                                         return o > (1LL << 32);
                                     }))),
        base("open", ret_is(Err::ENODEV_)),
        base("truncate", ret_is(Err::EIO_)),
        never(),
        never(),
        never(),
        never(),
        never(),
    };
    const char* c_descs[17] = {
        "project-quota exceeded during create mishandled (EDQUOT)",
        "directory at max link count (EMLINK) splits htree wrongly",
        "system file table exhaustion (ENFILE) leaks sb reference",
        "successful O_NOATIME open still updates atime on ext4",
        "inode-exhaustion mkdir unwinds bitmap out of order",
        "xattr block allocation over quota corrupts mb cache",
        "O_NOCTTY on fs file trips tty-check dead branch",
        "O_ASYNC fasync registration on regular file leaks",
        "setuid mkdir inherits unexpected default ACL",
        "SEEK_END beyond 4 GiB wraps 32-bit temporary",
        "ENODEV open exit path misses fops put",
        "EIO during truncate leaves orphan in-memory extent",
        "allocator stress race under parallel creates",
        "log-replay ordering race (mount-time only)",
        "readdir vs rename cursor race",
        "writeback error propagation race",
        "evict vs sync_fs ordering race",
    };
    for (int i = 0; i < 17; ++i) {
        const char* fs = (i % 4 == 2 || i == 15) ? "btrfs" : "ext4";
        c.add(fs, c_descs[i], hit_fn(static_cast<std::size_t>(i + 3)),
              hit_fn(static_cast<std::size_t>(i + 3)),
              unhit_branch(static_cast<std::size_t>(i)), c_tags[i].in,
              c_tags[i].out, c_trigs[i]);
    }

    // =====================================================================
    // Category D — 6 bugs where only the enclosing FUNCTION is covered
    // (the buggy lines themselves never run).
    // =====================================================================
    const BTag d_tags[6] = {
        {true, true}, {true, true}, {true, true},
        {true, true}, {true, false}, {false, false},
    };
    const Trig d_trigs[6] = {
        base("open",
             both(flags_all(O_DIRECT | O_APPEND), ok())),
        base("write", ret_is(Err::ESPIPE_)),
        base("getxattr",
             [](const CanonicalView& e) {
                 auto n = e.event->str_arg("name");
                 return n && n->rfind("trusted.", 0) == 0;
             }),
        base("open", ret_is(Err::EXDEV_)),
        base("open", flags_all(O_DIRECTORY | O_TMPFILE)),
        never(),
    };
    const char* d_descs[6] = {
        "O_DIRECT|O_APPEND combination writes at stale EOF",
        "pwrite on fifo returns ESPIPE after partial reservation",
        "trusted.* getxattr skips capability check in fast path",
        "RESOLVE_NO_XDEV crossing (EXDEV) leaks mount reference",
        "O_TMPFILE|O_DIRECTORY validation order wrong",
        "background defrag vs inline-data race",
    };
    for (int i = 0; i < 6; ++i) {
        const char* fs = i >= 4 ? "btrfs" : "ext4";
        c.add(fs, d_descs[i], hit_fn(static_cast<std::size_t>(i + 7)),
              unhit_branch(static_cast<std::size_t>(i + 2)),
              unhit_branch(static_cast<std::size_t>(i + 2)), d_tags[i].in,
              d_tags[i].out, d_trigs[i]);
    }

    // =====================================================================
    // Category E — 9 bugs in entirely uncovered code (rename/link/
    // tmpfile paths the simulated suites never enter).
    // =====================================================================
    const BTag e_tags[9] = {
        {true, true},  {true, true},  {true, true},  {true, true},
        {true, true},  {false, false}, {false, false}, {false, false},
        {false, false},
    };
    const Trig e_trigs[9] = {
        base("open", both(flags_all(O_TMPFILE), ret_is(Err::ENOSPC_))),
        base("open", ret_is(Err::E2BIG_)),
        base("chdir", ret_is(Err::ELOOP_)),
        base("truncate", ret_is(Err::ETXTBSY_)),
        base("chmod", ret_is(Err::EOPNOTSUPP_)),
        never(),
        never(),
        never(),
        never(),
    };
    const char* e_descs[9] = {
        "O_TMPFILE under ENOSPC leaves orphan chain broken",
        "openat2 with oversized open_how (E2BIG) leaks copied struct",
        "chdir through deep symlink chain miscounts nesting (ELOOP)",
        "truncate of running executable (ETXTBSY) half-applies",
        "fchmodat AT_SYMLINK_NOFOLLOW (EOPNOTSUPP) corrupts error slot",
        "cross-directory rename drops fsync dependency",
        "hard link to inline-data inode corrupts ref count",
        "rename overwrite loses victim's orphan record on crash",
        "RENAME_EXCHANGE vs quota transfer race",
    };
    for (int i = 0; i < 9; ++i) {
        const char* fs = i >= 7 ? "btrfs" : "ext4";
        c.add(fs, e_descs[i], unhit_fn(static_cast<std::size_t>(i)),
              unhit_fn(static_cast<std::size_t>(i)),
              unhit_branch(static_cast<std::size_t>(i)), e_tags[i].in,
              e_tags[i].out, e_trigs[i]);
    }

    // The "triggers for each bug" column of the released dataset, in
    // corpus order.  Empty = no syscall-level trigger (pure race).
    static constexpr const char* kTriggerDescs[70] = {
        // A: detected by the simulated xfstests run.
        "open(O_CREAT|O_EXCL) on an existing path returning EEXIST",
        "write(2) failing with ENOSPC",
        "truncate(2) failing with EFBIG",
        "open(2) failing with ELOOP on a symlink loop",
        "open(2) failing with ENAMETOOLONG",
        "lseek(2) with a negative offset returning EINVAL",
        "setxattr(2) with XATTR_REPLACE returning ENODATA",
        "getxattr(2) size probe (size = 0) succeeding",
        "mkdir(2) with mode 0000 succeeding",
        "read(2) of at least 16 MiB succeeding",
        "setxattr(2) with a zero-length value",
        "write(2) with count 0",
        "open(2) with O_SYNC",
        "lseek(2) with SEEK_HOLE",
        "truncate(2) to length 0",
        "chmod(2) setting S_ISUID",
        "close(2) returning EBADF",
        "getxattr(2) returning ERANGE",
        // B: function+line+branch covered, trigger never generated.
        "lsetxattr(2) with the maximum allowed size (XATTR_SIZE_MAX)",
        "write(2) of at least 1 GiB succeeding",
        "open(O_TMPFILE|O_RDWR) succeeding",
        "open(2) returning EOVERFLOW (large file, 32-bit caller)",
        "write(2) returning EDQUOT",
        "open(2) returning ENOMEM",
        "truncate(2) beyond 1 TiB succeeding",
        "read(2) returning EIO",
        "open(2) returning EINTR",
        "open(2) with O_LARGEFILE",
        "open(2) with O_PATH",
        "read(2) of at least 32 MiB",
        "setxattr(2) with XATTR_CREATE|XATTR_REPLACE",
        "chmod(2) with mode 07777",
        "open(2) returning EAGAIN (openat2 RESOLVE_CACHED)",
        "write(2) returning EPIPE",
        "close(2) returning EINTR",
        "", "", "",
        // C: function+line covered, guarding branch never executed.
        "open(2) returning EDQUOT",
        "mkdir(2) returning EMLINK",
        "open(2) returning ENFILE",
        "open(2) with O_NOATIME succeeding",
        "mkdir(2) returning ENOSPC",
        "setxattr(2) returning EDQUOT",
        "open(2) with O_NOCTTY",
        "open(2) with O_ASYNC",
        "mkdir(2) with S_ISUID",
        "lseek(SEEK_END) with an offset beyond 4 GiB",
        "open(2) returning ENODEV",
        "truncate(2) returning EIO",
        "", "", "", "", "",
        // D: only the enclosing function covered.
        "open(O_DIRECT|O_APPEND) succeeding",
        "write(2) returning ESPIPE",
        "getxattr(2) on a trusted.* attribute name",
        "open(2) returning EXDEV (openat2 RESOLVE_NO_XDEV)",
        "open(2) with O_DIRECTORY|O_TMPFILE",
        "",
        // E: entirely uncovered code paths.
        "open(O_TMPFILE) returning ENOSPC",
        "openat2(2) with an oversized open_how returning E2BIG",
        "chdir(2) returning ELOOP",
        "truncate(2) returning ETXTBSY",
        "fchmodat(AT_SYMLINK_NOFOLLOW) returning EOPNOTSUPP",
        "", "", "", "",
    };
    for (std::size_t i = 0; i < c.bugs.size() && i < 70; ++i)
        c.bugs[i].trigger_description = kTriggerDescs[i];

    return c.bugs;
}

}  // namespace

const std::vector<Bug>& bug_corpus() {
    static const std::vector<Bug> kCorpus = build_corpus();
    return kCorpus;
}

std::string render_bug_dataset() {
    std::string out =
        "| id | fs | class | function site | line site | branch site | "
        "trigger | fix summary |\n"
        "|---|---|---|---|---|---|---|---|\n";
    for (const Bug& b : bug_corpus()) {
        const char* cls = b.input_bug && b.output_bug ? "input+output"
                          : b.input_bug              ? "input"
                          : b.output_bug             ? "output"
                                                     : "neither";
        out += "| " + b.id + " | " + b.fs + " | " + cls + " | " +
               b.function_site + " | " + b.line_site + " | " +
               b.branch_site + " | " +
               (b.trigger_description.empty() ? "(race; no syscall-level "
                                                "trigger)"
                                              : b.trigger_description) +
               " | " + b.description + " |\n";
    }
    return out;
}

}  // namespace iocov::bugstudy
