#include "abi/errno.hpp"

#include <array>
#include <utility>

namespace iocov::abi {
namespace {

constexpr std::array<std::pair<Err, const char*>, 37> kNames = {{
    {Err::Ok, "OK"},
    {Err::EPERM_, "EPERM"},
    {Err::ENOENT_, "ENOENT"},
    {Err::EINTR_, "EINTR"},
    {Err::EIO_, "EIO"},
    {Err::ENXIO_, "ENXIO"},
    {Err::E2BIG_, "E2BIG"},
    {Err::EBADF_, "EBADF"},
    {Err::EAGAIN_, "EAGAIN"},
    {Err::ENOMEM_, "ENOMEM"},
    {Err::EACCES_, "EACCES"},
    {Err::EFAULT_, "EFAULT"},
    {Err::EBUSY_, "EBUSY"},
    {Err::EEXIST_, "EEXIST"},
    {Err::EXDEV_, "EXDEV"},
    {Err::ENODEV_, "ENODEV"},
    {Err::ENOTDIR_, "ENOTDIR"},
    {Err::EISDIR_, "EISDIR"},
    {Err::EINVAL_, "EINVAL"},
    {Err::ENFILE_, "ENFILE"},
    {Err::EMFILE_, "EMFILE"},
    {Err::ETXTBSY_, "ETXTBSY"},
    {Err::EFBIG_, "EFBIG"},
    {Err::ENOSPC_, "ENOSPC"},
    {Err::ESPIPE_, "ESPIPE"},
    {Err::EPIPE_, "EPIPE"},
    {Err::EROFS_, "EROFS"},
    {Err::EMLINK_, "EMLINK"},
    {Err::ERANGE_, "ERANGE"},
    {Err::ENAMETOOLONG_, "ENAMETOOLONG"},
    {Err::ENOSYS_, "ENOSYS"},
    {Err::ENOTEMPTY_, "ENOTEMPTY"},
    {Err::ELOOP_, "ELOOP"},
    {Err::ENODATA_, "ENODATA"},
    {Err::EOVERFLOW_, "EOVERFLOW"},
    {Err::EOPNOTSUPP_, "EOPNOTSUPP"},
    {Err::EDQUOT_, "EDQUOT"},
}};

}  // namespace

std::string err_name(Err e) {
    for (const auto& [err, name] : kNames)
        if (err == e) return name;
    return "E?" + std::to_string(static_cast<int>(e));
}

std::string err_name(int errno_value) {
    return err_name(static_cast<Err>(errno_value));
}

std::optional<Err> err_from_name(std::string_view name) {
    for (const auto& [err, n] : kNames)
        if (name == n) return err;
    return std::nullopt;
}

const std::vector<Err>& open_manpage_errors() {
    // Reverse-alphabetical, matching the order of Fig. 4's x-axis.
    static const std::vector<Err> kErrors = {
        Err::EXDEV_,    Err::ETXTBSY_,      Err::EROFS_,   Err::EPERM_,
        Err::EOVERFLOW_, Err::ENXIO_,       Err::ENOTDIR_, Err::ENOSPC_,
        Err::ENOMEM_,   Err::ENOENT_,       Err::ENODEV_,  Err::ENFILE_,
        Err::ENAMETOOLONG_, Err::EMFILE_,   Err::ELOOP_,   Err::EISDIR_,
        Err::EINVAL_,   Err::EINTR_,        Err::EFBIG_,   Err::EFAULT_,
        Err::EEXIST_,   Err::EDQUOT_,       Err::EBUSY_,   Err::EBADF_,
        Err::EAGAIN_,   Err::EACCES_,       Err::E2BIG_,
    };
    return kErrors;
}

}  // namespace iocov::abi
