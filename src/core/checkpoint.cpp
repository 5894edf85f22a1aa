#include "core/checkpoint.hpp"

#include <filesystem>

#include "core/detail/sealed.hpp"
#include "trace/detail/wire.hpp"

namespace iocov::core {
namespace {

using detail::fail;
using trace::detail::PayloadCursor;
using trace::detail::put_record;
using trace::detail::put_varint;
using Kind = SnapshotError::Kind;

// A manifest is always named by the user, so a foreign file and a
// version skew are both damage.
constexpr detail::SealedFormat kIock{
    .magic = kIockMagic,
    .version = kIockVersion,
    .footer_tag = static_cast<std::uint8_t>(IockTag::Footer),
    .noun = "checkpoint",
    .foreign = Kind::Corrupt,
    .skew = Kind::Corrupt,
};

}  // namespace

std::string encode_checkpoint(const Checkpoint& cp) {
    std::string out =
        trace::detail::container_header(kIockMagic, kIockVersion);

    std::string payload;
    payload.push_back(static_cast<char>(IockTag::Meta));
    payload.push_back(static_cast<char>(cp.mode));
    put_varint(payload, cp.rejected);
    put_varint(payload, cp.bytes);
    put_varint(payload, cp.diags.total());
    put_record(out, payload);

    for (const auto& name : cp.consumed) {
        payload.clear();
        payload.push_back(static_cast<char>(IockTag::Name));
        payload.append(name);
        put_record(out, payload);
    }

    for (const auto& d : cp.diags.entries()) {
        payload.clear();
        payload.push_back(static_cast<char>(IockTag::Diag));
        put_varint(payload, d.line);
        put_varint(payload, d.offset);
        put_varint(payload, d.reason.size());
        payload.append(d.reason);
        put_varint(payload, d.excerpt.size());
        payload.append(d.excerpt);
        put_record(out, payload);
    }

    for (const auto& b : cp.blocks) {
        payload.clear();
        payload.push_back(static_cast<char>(IockTag::Block));
        put_varint(payload, b.leaves);
        payload.append(encode_snapshot(b.snapshot));
        put_record(out, payload);
    }

    detail::seal(out, kIock,
                 {cp.consumed.size(), cp.diags.entries().size(),
                  cp.blocks.size()});
    return out;
}

std::optional<Checkpoint> decode_checkpoint(std::string_view data,
                                            SnapshotError* err) {
    Checkpoint cp;
    std::uint64_t diag_total = 0;
    std::size_t n_diags = 0;
    bool saw_meta = false;
    auto on_record = [&](const trace::detail::Record& rec) {
        PayloadCursor c(rec.body());
        switch (static_cast<IockTag>(rec.tag())) {
            case IockTag::Meta: {
                std::uint8_t mode = 0;
                const bool ok =
                    !saw_meta && c.read_u8(mode) &&
                    mode >= static_cast<std::uint8_t>(CheckpointMode::Merge) &&
                    mode <= static_cast<std::uint8_t>(CheckpointMode::Serve) &&
                    c.read_varint(cp.rejected) && c.read_varint(cp.bytes) &&
                    c.read_varint(diag_total) && c.done();
                if (!ok)
                    return fail(err, Kind::Corrupt, rec.start,
                                "malformed checkpoint meta record");
                cp.mode = static_cast<CheckpointMode>(mode);
                saw_meta = true;
                return true;
            }
            case IockTag::Name:
                cp.consumed.emplace_back(rec.body());
                return true;
            case IockTag::Diag: {
                trace::ParseDiagnostic d;
                std::string reason, excerpt;
                const bool ok = c.read_varint(d.line) &&
                                c.read_varint(d.offset) &&
                                c.read_string(reason) &&
                                c.read_string(excerpt) && c.done();
                if (!ok)
                    return fail(err, Kind::Corrupt, rec.start,
                                "malformed checkpoint diagnostic record");
                ++n_diags;
                cp.diags.record(d.line, d.offset, reason, excerpt);
                return true;
            }
            case IockTag::Block: {
                MergeBlock b;
                if (!c.read_varint(b.leaves) || b.leaves == 0)
                    return fail(err, Kind::Corrupt, rec.start,
                                "malformed checkpoint block record");
                const std::string_view iocs = c.rest();
                auto snap = decode_snapshot(iocs, err);
                if (!snap) {
                    // err already carries the embedded-IOCS failure;
                    // re-anchor the offset to this file.
                    if (err) {
                        err->offset += static_cast<std::uint64_t>(
                            iocs.data() - data.data());
                        err->reason =
                            "embedded block snapshot: " + err->reason;
                    }
                    return false;
                }
                b.snapshot = std::move(*snap);
                cp.blocks.push_back(std::move(b));
                return true;
            }
            default:
                return fail(err, Kind::Corrupt, rec.start,
                            "unknown record tag");
        }
    };
    std::uint64_t counts[3] = {};  // footer: names, diagnostics, blocks
    if (!detail::read_sealed(data, kIock, counts, err, on_record))
        return std::nullopt;
    if (!saw_meta || counts[0] != cp.consumed.size() ||
        counts[1] != n_diags || counts[2] != cp.blocks.size() ||
        diag_total < n_diags) {
        fail(err, Kind::Corrupt, data.size(),
             saw_meta ? "footer counts disagree with checkpoint records"
                      : "checkpoint has no meta record");
        return std::nullopt;
    }
    cp.diags.count_only(diag_total - n_diags);
    return cp;
}

bool save_checkpoint_file(const std::string& path, const Checkpoint& cp,
                          SnapshotError* err) {
    return detail::save_artifact(path, encode_checkpoint(cp), err);
}

std::optional<Checkpoint> load_checkpoint_file(const std::string& path,
                                               SnapshotError* err) {
    return detail::load_artifact(path, err, decode_checkpoint);
}

std::optional<Checkpoint> resume_checkpoint(const std::string& path,
                                            CheckpointMode mode,
                                            SnapshotError* err) {
    Checkpoint fresh;
    fresh.mode = mode;
    std::error_code ec;
    if (!std::filesystem::exists(path, ec)) return fresh;
    auto cp = load_checkpoint_file(path, err);
    if (!cp) return std::nullopt;
    if (cp->mode != mode) {
        // Indexed by CheckpointMode.
        static const char* const verb[] = {"", "merge", "analyze", "serve"};
        fail(err, SnapshotError::Kind::Mismatch, 0,
             std::string("checkpoint was written by `iocov ") +
                 verb[static_cast<int>(cp->mode)] + "`, not `iocov " +
                 verb[static_cast<int>(mode)] + "`");
        return std::nullopt;
    }
    MergeBlock state;
    for (auto& b : cp->blocks) state.absorb(std::move(b));
    cp->blocks.clear();
    if (state.leaves > 0) cp->blocks.push_back(std::move(state));
    return cp;
}

void MergeBlock::absorb(MergeBlock other) {
    if (other.leaves == 0) return;
    if (leaves == 0) {
        *this = std::move(other);
        return;
    }
    snapshot.merge(other.snapshot);
    leaves += other.leaves;
}

}  // namespace iocov::core
