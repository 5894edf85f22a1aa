#include "core/snapshot.hpp"

#include <algorithm>

#include "core/detail/sealed.hpp"
#include "core/untested.hpp"
#include "exec/thread_pool.hpp"
#include "trace/detail/wire.hpp"

namespace iocov::core {
namespace {

using trace::detail::PayloadCursor;
using trace::detail::put_record;
using trace::detail::put_u64le;
using trace::detail::put_varint;
using trace::detail::StringTable;
using Kind = SnapshotError::Kind;

// A foreign file and a version skew keep their own kinds, so `iocov
// merge` can tell a README from a snapshot it cannot read.
constexpr detail::SealedFormat kIocs{
    .magic = kIocsMagic,
    .version = kIocsVersion,
    .footer_tag = static_cast<std::uint8_t>(IocsTag::Footer),
    .noun = "snapshot",
    .foreign = Kind::NotIocs,
    .skew = Kind::VersionSkew,
};

static_assert(kIocsHeaderSize == trace::detail::kHeaderSize);
static_assert(static_cast<std::uint8_t>(IocsTag::Str) ==
              trace::detail::kStrTag);

// ---- encoding --------------------------------------------------------------

void put_histogram(std::string& payload, std::string& out,
                   StringTable& strings,
                   const stats::PartitionHistogram& hist) {
    put_varint(payload, hist.rows().size());
    put_varint(payload, hist.declared_count());
    for (const auto& row : hist.rows()) {
        put_varint(payload, strings.intern(out, row.label));
        put_varint(payload, row.count);
    }
}

// ---- decoding --------------------------------------------------------------

bool read_histogram(PayloadCursor& c,
                    const std::vector<std::string_view>& strings,
                    stats::PartitionHistogram& out) {
    std::uint64_t rows = 0, declared = 0;
    // Spaces are tens of labels, and a row takes at least 2 bytes: cap
    // forged sizes before they size the reserve below.
    if (!c.read_varint(rows) || !c.read_varint(declared) || declared > rows ||
        rows > (1u << 24) || rows > c.rest().size() / 2)
        return false;
    std::vector<stats::PartitionCount> pc;
    pc.reserve(rows);
    for (std::uint64_t i = 0; i < rows; ++i) {
        std::uint64_t label_id = 0, count = 0;
        if (!c.read_varint(label_id) || label_id >= strings.size() ||
            !c.read_varint(count))
            return false;
        pc.push_back({std::string(strings[label_id]), count});
    }
    try {
        out = stats::PartitionHistogram::from_rows(std::move(pc),
                                                   static_cast<std::size_t>(
                                                       declared));
    } catch (const std::invalid_argument&) {
        return false;  // forged tail order / duplicate labels
    }
    return true;
}

}  // namespace

std::optional<std::uint8_t> iocs_version(std::string_view data) {
    if (data.size() < 5 || !trace::detail::has_magic(data, kIocsMagic))
        return std::nullopt;
    return static_cast<std::uint8_t>(data[4]);
}

// ---- IOCovSnapshot ---------------------------------------------------------

void IOCovSnapshot::merge(const IOCovSnapshot& other) {
    report.merge(other.report);
    filtered_out += other.filtered_out;
    dropped += other.dropped;
    ingest += other.ingest;
    if (label != other.label) label.clear();
    timestamp = std::max(timestamp, other.timestamp);
}

std::string encode_snapshot(const IOCovSnapshot& snapshot) {
    std::string out =
        trace::detail::container_header(kIocsMagic, kIocsVersion);
    StringTable strings;

    {
        std::string payload;
        payload.push_back(static_cast<char>(IocsTag::Meta));
        put_varint(payload, snapshot.report.events_seen);
        put_varint(payload, snapshot.report.events_tracked);
        put_varint(payload, snapshot.filtered_out);
        put_varint(payload, snapshot.dropped);
        put_varint(payload, snapshot.ingest.events);
        put_varint(payload, snapshot.ingest.bytes);
        put_varint(payload, snapshot.ingest.files);
        put_varint(payload, snapshot.ingest.threads);
        // Two reserved slots, written 0 and ignored on read: a varint
        // that once held the hot-loop allocation count and 8 bytes that
        // once held wall-clock seconds.  Neither is a property of the
        // input, so neither may change a snapshot's bytes.
        put_varint(payload, 0);
        put_u64le(payload, 0);
        put_varint(payload, strings.intern(out, snapshot.label));
        put_varint(payload, snapshot.timestamp);
        put_record(out, payload);
    }

    for (const auto& in : snapshot.report.inputs) {
        std::string payload;
        payload.push_back(static_cast<char>(IocsTag::Input));
        put_varint(payload, strings.intern(out, in.base));
        put_varint(payload, strings.intern(out, in.key));
        payload.push_back(static_cast<char>(in.cls));
        put_histogram(payload, out, strings, in.hist);
        put_histogram(payload, out, strings, in.combo_cardinality);
        put_histogram(payload, out, strings, in.combo_cardinality_rdonly);
        put_histogram(payload, out, strings, in.pairs);
        put_record(out, payload);
    }
    for (const auto& o : snapshot.report.outputs) {
        std::string payload;
        payload.push_back(static_cast<char>(IocsTag::Output));
        put_varint(payload, strings.intern(out, o.base));
        payload.push_back(static_cast<char>(o.success));
        put_histogram(payload, out, strings, o.hist);
        put_record(out, payload);
    }

    detail::seal(out, kIocs,
                 {snapshot.report.inputs.size(),
                  snapshot.report.outputs.size()});
    return out;
}

std::string SnapshotError::to_string() const {
    switch (kind) {
        case Kind::NotIocs:
            return "not an IOCS snapshot (bad magic)";
        case Kind::VersionSkew:
            return "snapshot version skew: file is v" +
                   std::to_string(found_version) + ", this build reads v" +
                   std::to_string(kIocsVersion) +
                   " — re-export it or upgrade the tool";
        case Kind::Torn:
        case Kind::Corrupt:
            return reason + " (byte " + std::to_string(offset) + ")";
        case Kind::Mismatch:
        case Kind::Io:  // a full host::IoError::to_string(), errno and all
            return reason;
    }
    return reason;
}

std::optional<IOCovSnapshot> decode_snapshot(std::string_view data,
                                             SnapshotError* err) {
    using detail::fail;
    IOCovSnapshot snap;
    std::vector<std::string_view> strings;
    bool saw_meta = false;
    auto on_record = [&](const trace::detail::Record& rec) {
        PayloadCursor c(rec.body());
        switch (static_cast<IocsTag>(rec.tag())) {
            case IocsTag::Str:
                strings.push_back(rec.body());
                return true;
            case IocsTag::Meta: {
                std::uint64_t threads = 0, reserved_allocs = 0,
                              reserved = 0, label_id = 0;
                const bool ok =
                    !saw_meta && c.read_varint(snap.report.events_seen) &&
                    c.read_varint(snap.report.events_tracked) &&
                    c.read_varint(snap.filtered_out) &&
                    c.read_varint(snap.dropped) &&
                    c.read_varint(snap.ingest.events) &&
                    c.read_varint(snap.ingest.bytes) &&
                    c.read_varint(snap.ingest.files) &&
                    c.read_varint(threads) && threads <= UINT32_MAX &&
                    c.read_varint(reserved_allocs) &&
                    c.read_u64le(reserved) && c.read_varint(label_id) &&
                    label_id < strings.size() &&
                    c.read_varint(snap.timestamp) && c.done();
                if (!ok)
                    return fail(err, Kind::Corrupt, rec.start,
                                "malformed meta record");
                snap.ingest.threads = static_cast<unsigned>(threads);
                snap.label.assign(strings[label_id]);
                saw_meta = true;
                return true;
            }
            case IocsTag::Input: {
                ArgCoverage in;
                std::uint64_t base_id = 0, key_id = 0;
                std::uint8_t cls = 0;
                const bool ok =
                    c.read_varint(base_id) && base_id < strings.size() &&
                    c.read_varint(key_id) && key_id < strings.size() &&
                    c.read_u8(cls) &&
                    cls <= static_cast<std::uint8_t>(
                               ArgClass::Categorical) &&
                    read_histogram(c, strings, in.hist) &&
                    read_histogram(c, strings, in.combo_cardinality) &&
                    read_histogram(c, strings,
                                   in.combo_cardinality_rdonly) &&
                    read_histogram(c, strings, in.pairs) && c.done();
                if (!ok)
                    return fail(err, Kind::Corrupt, rec.start,
                                "malformed input-space record");
                in.base.assign(strings[base_id]);
                in.key.assign(strings[key_id]);
                in.cls = static_cast<ArgClass>(cls);
                snap.report.inputs.push_back(std::move(in));
                return true;
            }
            case IocsTag::Output: {
                OutputCoverage o;
                std::uint64_t base_id = 0;
                std::uint8_t success = 0;
                const bool ok =
                    c.read_varint(base_id) && base_id < strings.size() &&
                    c.read_u8(success) &&
                    success <= static_cast<std::uint8_t>(SuccessKind::NewFd) &&
                    read_histogram(c, strings, o.hist) && c.done();
                if (!ok)
                    return fail(err, Kind::Corrupt, rec.start,
                                "malformed output-space record");
                o.base.assign(strings[base_id]);
                o.success = static_cast<SuccessKind>(success);
                snap.report.outputs.push_back(std::move(o));
                return true;
            }
            default:
                return fail(err, Kind::Corrupt, rec.start,
                            "unknown record tag");
        }
    };
    std::uint64_t spaces[2] = {};  // footer: input and output space counts
    if (!detail::read_sealed(data, kIocs, spaces, err, on_record))
        return std::nullopt;
    if (!saw_meta || spaces[0] != snap.report.inputs.size() ||
        spaces[1] != snap.report.outputs.size()) {
        fail(err, Kind::Corrupt, data.size(),
             saw_meta ? "footer space counts disagree with records"
                      : "snapshot has no meta record");
        return std::nullopt;
    }
    return snap;
}

bool save_snapshot_file(const std::string& path,
                        const IOCovSnapshot& snapshot,
                        SnapshotError* err) {
    return detail::save_artifact(path, encode_snapshot(snapshot), err);
}

std::optional<IOCovSnapshot> load_snapshot_file(const std::string& path,
                                                SnapshotError* err) {
    return detail::load_artifact(path, err, decode_snapshot);
}

// ---- merge -----------------------------------------------------------------

IOCovSnapshot merge_snapshots(std::vector<NamedSnapshot> snapshots,
                              unsigned n_threads) {
    if (snapshots.empty()) return {};
    if (n_threads == 0) n_threads = exec::ThreadPool::default_thread_count();
    // One contiguous chunk per lane, each folded in place into its
    // first snapshot (folds never start from IOCovSnapshot{}); merge()
    // is exact, so the grouping cannot change the bytes.
    const std::size_t n = snapshots.size();
    const std::size_t lanes = std::min<std::size_t>(n_threads, n);
    auto chunk_begin = [&](std::size_t lane) { return lane * n / lanes; };
    auto fold_chunk = [&](std::size_t lane) {
        IOCovSnapshot& acc = snapshots[chunk_begin(lane)].snapshot;
        for (std::size_t i = chunk_begin(lane) + 1; i < chunk_begin(lane + 1);
             ++i)
            acc.merge(snapshots[i].snapshot);
    };
    if (lanes > 1) {
        exec::ThreadPool pool(static_cast<unsigned>(lanes));
        exec::parallel_for(pool, lanes, fold_chunk);
    } else {
        fold_chunk(0);
    }
    IOCovSnapshot out = std::move(snapshots.front().snapshot);
    for (std::size_t lane = 1; lane < lanes; ++lane)
        out.merge(snapshots[chunk_begin(lane)].snapshot);
    return out;
}

std::string merge_summary_json(std::size_t snapshots, std::size_t rejected,
                               const IOCovSnapshot& merged) {
    std::string json = "{\n";
    auto num = [&](const char* key, std::uint64_t v, bool comma = true) {
        json += "  \"";
        json += key;
        json += "\": " + std::to_string(v) + (comma ? ",\n" : "\n");
    };
    num("snapshots", snapshots);
    num("rejected", rejected);
    num("events_seen", merged.report.events_seen);
    num("events_tracked", merged.report.events_tracked);
    num("filtered_out", merged.filtered_out);
    num("dropped", merged.dropped);
    num("ingest_events", merged.ingest.events);
    num("ingest_bytes", merged.ingest.bytes);
    num("ingest_files", merged.ingest.files);
    json += "  \"spaces\": [\n";
    const auto rows = summarize(merged.report);
    char buf[64];
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const auto& r = rows[i];
        std::snprintf(buf, sizeof buf, "%.4f", r.fraction);
        json += "    {\"space\": \"" + r.base +
                (r.arg.empty() ? "" : "." + r.arg) +
                "\", \"declared\": " + std::to_string(r.declared) +
                ", \"tested\": " + std::to_string(r.tested) +
                ", \"coverage\": " + buf + "}" +
                (i + 1 < rows.size() ? ",\n" : "\n");
    }
    json += "  ]\n}\n";
    return json;
}

}  // namespace iocov::core
