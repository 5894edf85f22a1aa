#include "core/syscall_spec.hpp"

namespace iocov::core {

using abi::Err;

std::string_view arg_class_name(ArgClass c) {
    switch (c) {
        case ArgClass::Identifier: return "identifier";
        case ArgClass::Bitmap: return "bitmap";
        case ArgClass::Numeric: return "numeric";
        case ArgClass::Categorical: return "categorical";
    }
    return "?";
}

const std::vector<SyscallSpec>& syscall_registry() {
    static const std::vector<SyscallSpec> kRegistry = {
        {"open",
         {"open", "openat", "creat", "openat2"},
         {{"flags", ArgClass::Bitmap}, {"mode", ArgClass::Bitmap}},
         SuccessKind::NewFd,
         abi::open_manpage_errors()},

        {"read",
         {"read", "pread64", "readv"},
         {{"count", ArgClass::Numeric}},
         SuccessKind::ByteCount,
         {Err::EAGAIN_, Err::EBADF_, Err::EFAULT_, Err::EINTR_, Err::EINVAL_,
          Err::EIO_, Err::EISDIR_, Err::ESPIPE_}},

        {"write",
         {"write", "pwrite64", "writev"},
         {{"count", ArgClass::Numeric}},
         SuccessKind::ByteCount,
         {Err::EAGAIN_, Err::EBADF_, Err::EDQUOT_, Err::EFAULT_, Err::EFBIG_,
          Err::EINTR_, Err::EINVAL_, Err::EIO_, Err::ENOSPC_, Err::EPERM_,
          Err::EPIPE_, Err::ESPIPE_}},

        {"lseek",
         {"lseek"},
         {{"offset", ArgClass::Numeric}, {"whence", ArgClass::Categorical}},
         SuccessKind::Offset,
         {Err::EBADF_, Err::EINVAL_, Err::ENXIO_, Err::EOVERFLOW_,
          Err::ESPIPE_}},

        {"truncate",
         {"truncate", "ftruncate"},
         {{"length", ArgClass::Numeric}},
         SuccessKind::Unit,
         {Err::EACCES_, Err::EBADF_, Err::EFAULT_, Err::EFBIG_, Err::EINTR_,
          Err::EINVAL_, Err::EIO_, Err::EISDIR_, Err::ELOOP_,
          Err::ENAMETOOLONG_, Err::ENOENT_, Err::ENOTDIR_, Err::EPERM_,
          Err::EROFS_, Err::ETXTBSY_}},

        {"mkdir",
         {"mkdir", "mkdirat"},
         {{"mode", ArgClass::Bitmap}},
         SuccessKind::Unit,
         {Err::EACCES_, Err::EBADF_, Err::EDQUOT_, Err::EEXIST_, Err::EFAULT_,
          Err::EINVAL_, Err::ELOOP_, Err::EMLINK_, Err::ENAMETOOLONG_,
          Err::ENOENT_, Err::ENOMEM_, Err::ENOSPC_, Err::ENOTDIR_,
          Err::EPERM_, Err::EROFS_}},

        {"chmod",
         {"chmod", "fchmod", "fchmodat"},
         {{"mode", ArgClass::Bitmap}},
         SuccessKind::Unit,
         {Err::EACCES_, Err::EBADF_, Err::EFAULT_, Err::EINVAL_, Err::EIO_,
          Err::ELOOP_, Err::ENAMETOOLONG_, Err::ENOENT_, Err::ENOMEM_,
          Err::ENOTDIR_, Err::EOPNOTSUPP_, Err::EPERM_, Err::EROFS_}},

        {"close",
         {"close"},
         {{"fd", ArgClass::Identifier}},
         SuccessKind::Unit,
         {Err::EBADF_, Err::EDQUOT_, Err::EINTR_, Err::EIO_, Err::ENOSPC_}},

        {"chdir",
         {"chdir", "fchdir"},
         {{"pathname", ArgClass::Identifier}},
         SuccessKind::Unit,
         {Err::EACCES_, Err::EBADF_, Err::EFAULT_, Err::EIO_, Err::ELOOP_,
          Err::ENAMETOOLONG_, Err::ENOENT_, Err::ENOMEM_, Err::ENOTDIR_}},

        {"setxattr",
         {"setxattr", "lsetxattr", "fsetxattr"},
         {{"size", ArgClass::Numeric}, {"flags", ArgClass::Categorical}},
         SuccessKind::Unit,
         {Err::E2BIG_, Err::EACCES_, Err::EBADF_, Err::EDQUOT_, Err::EEXIST_,
          Err::EFAULT_, Err::EINVAL_, Err::ELOOP_, Err::ENAMETOOLONG_,
          Err::ENODATA_, Err::ENOENT_, Err::ENOSPC_, Err::ENOTDIR_,
          Err::EOPNOTSUPP_, Err::EPERM_, Err::ERANGE_, Err::EROFS_}},

        {"getxattr",
         {"getxattr", "lgetxattr", "fgetxattr"},
         {{"size", ArgClass::Numeric}},
         SuccessKind::ByteCount,
         {Err::EACCES_, Err::EBADF_, Err::EFAULT_, Err::ELOOP_,
          Err::ENAMETOOLONG_, Err::ENODATA_, Err::ENOENT_, Err::ENOTDIR_,
          Err::EOPNOTSUPP_, Err::ERANGE_}},
    };
    return kRegistry;
}

const std::vector<SyscallSpec>& extended_syscall_registry() {
    static const std::vector<SyscallSpec> kExtended = [] {
        std::vector<SyscallSpec> regs = syscall_registry();
        // Track the positional-I/O offset argument (pread64/pwrite64
        // carry "pos"; plain read/write do not, which the analyzer
        // handles as a variant without the argument).
        for (auto& spec : regs)
            if (spec.base == "read" || spec.base == "write")
                spec.args.push_back({"pos", ArgClass::Numeric});
        regs.push_back(
            {"unlink",
             {"unlink", "rmdir"},
             {{"pathname", ArgClass::Identifier}},
             SuccessKind::Unit,
             {Err::EACCES_, Err::EBUSY_, Err::EFAULT_, Err::EISDIR_,
              Err::ELOOP_, Err::ENAMETOOLONG_, Err::ENOENT_,
              Err::ENOTDIR_, Err::ENOTEMPTY_, Err::EPERM_, Err::EROFS_,
              Err::EINVAL_}});
        regs.push_back(
            {"rename",
             {"rename"},
             {{"oldpath", ArgClass::Identifier}},
             SuccessKind::Unit,
             {Err::EACCES_, Err::EBUSY_, Err::EEXIST_, Err::EFAULT_,
              Err::EINVAL_, Err::EISDIR_, Err::ELOOP_, Err::EMLINK_,
              Err::ENAMETOOLONG_, Err::ENOENT_, Err::ENOSPC_,
              Err::ENOTDIR_, Err::ENOTEMPTY_, Err::EPERM_, Err::EROFS_,
              Err::EXDEV_}});
        regs.push_back(
            {"symlink",
             {"symlink"},
             {{"linkpath", ArgClass::Identifier}},
             SuccessKind::Unit,
             {Err::EACCES_, Err::EEXIST_, Err::EFAULT_, Err::ELOOP_,
              Err::ENAMETOOLONG_, Err::ENOENT_, Err::ENOSPC_,
              Err::ENOTDIR_, Err::EPERM_, Err::EROFS_}});
        regs.push_back(
            {"link",
             {"link"},
             {{"oldpath", ArgClass::Identifier}},
             SuccessKind::Unit,
             {Err::EACCES_, Err::EEXIST_, Err::EFAULT_, Err::ELOOP_,
              Err::EMLINK_, Err::ENAMETOOLONG_, Err::ENOENT_,
              Err::ENOSPC_, Err::ENOTDIR_, Err::EPERM_, Err::EROFS_,
              Err::EXDEV_}});
        regs.push_back({"fsync",
                        {"fsync", "fdatasync"},
                        {{"fd", ArgClass::Identifier}},
                        SuccessKind::Unit,
                        {Err::EBADF_, Err::EDQUOT_, Err::EINTR_, Err::EIO_,
                         Err::ENOSPC_, Err::EROFS_, Err::EINVAL_}});
        return regs;
    }();
    return kExtended;
}

std::size_t tracked_variant_count() {
    std::size_t n = 0;
    for (const auto& spec : syscall_registry()) n += spec.variants.size();
    return n;
}

std::size_t tracked_argument_count() {
    std::size_t n = 0;
    for (const auto& spec : syscall_registry()) n += spec.args.size();
    return n;
}

}  // namespace iocov::core
