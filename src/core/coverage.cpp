#include "core/coverage.hpp"

#include <algorithm>

#include "core/schema.hpp"
#include "trace/syz_format.hpp"

namespace iocov::core {

ArgCoverage* CoverageReport::find_input(std::string_view base,
                                        std::string_view key) {
    for (auto& in : inputs)
        if (in.base == base && in.key == key) return &in;
    return nullptr;
}

const ArgCoverage* CoverageReport::find_input(std::string_view base,
                                              std::string_view key) const {
    for (const auto& in : inputs)
        if (in.base == base && in.key == key) return &in;
    return nullptr;
}

OutputCoverage* CoverageReport::find_output(std::string_view base) {
    for (auto& out : outputs)
        if (out.base == base) return &out;
    return nullptr;
}

const OutputCoverage* CoverageReport::find_output(
    std::string_view base) const {
    for (const auto& out : outputs)
        if (out.base == base) return &out;
    return nullptr;
}

void CoverageReport::merge(const CoverageReport& other) {
    events_seen += other.events_seen;
    events_tracked += other.events_tracked;
    for (const auto& oin : other.inputs) {
        if (ArgCoverage* in = find_input(oin.base, oin.key)) {
            in->hist.merge(oin.hist);
            in->combo_cardinality.merge(oin.combo_cardinality);
            in->combo_cardinality_rdonly.merge(oin.combo_cardinality_rdonly);
            in->pairs.merge(oin.pairs);
        } else {
            inputs.push_back(oin);
        }
    }
    for (const auto& oout : other.outputs) {
        if (OutputCoverage* out = find_output(oout.base))
            out->hist.merge(oout.hist);
        else
            outputs.push_back(oout);
    }
}

Analyzer::Analyzer(const std::vector<SyscallSpec>& registry)
    : Analyzer(Schema::of(registry)) {}

Analyzer::Analyzer(std::shared_ptr<const Schema> schema)
    : schema_(std::move(schema)), report_(schema_->empty_report()) {}

const SyscallTable& Analyzer::table() const { return schema_->table(); }

void Analyzer::consume(const trace::TraceEvent& event) {
    consume(event, schema_->table().bind(event.syscall));
}

void Analyzer::consume(const trace::TraceEvent& event,
                       const SyscallTable::Binding& binding) {
    ++report_.events_seen;
    if (!binding.tracked) return;
    ++report_.events_tracked;
    const auto view = SyscallTable::view(binding, event);
    consume_input(view);
    // Declarative inputs (e.g. parsed syzkaller programs) carry no
    // observed return value; they contribute input coverage only.
    if (!trace::is_input_only(event)) consume_output(view);
}

void Analyzer::consume_all(const std::vector<trace::TraceEvent>& events) {
    for (const auto& ev : events) consume(ev);
}

void Analyzer::consume_input(const CanonicalView& view) {
    const Schema& schema = *schema_;
    const auto& args = view.spec->args;
    const std::size_t base_slot = schema.table().arg_offset(view.id);
    for (std::size_t i = 0; i < args.size(); ++i) {
        // Args arrive in prototype order, so slot i is the first place
        // to look — the hint turns the common case into one compare.
        const trace::ArgValue* value = view.find_hinted(args[i].key, i);
        if (!value) continue;  // variant without this argument
        const std::size_t slot = base_slot + i;
        ArgCoverage& cov = report_.inputs[slot];

        // Declared rows are bumped by index; only a value outside them
        // renders a label (SSO-sized), so the steady state allocates
        // nothing.
        const Schema::Hits hits = schema.classify_input(slot, *value);
        for (std::size_t h = 0; h < hits.n; ++h)
            cov.hist.add_declared(hits.rows[h]);
        if (hits.undeclared)
            cov.hist.add(Schema::undeclared_input_label(*value));

        // Bitmap combination statistics (open flags only).
        if (slot != schema.open_flags_slot()) continue;
        const auto* rows = hits.rows.data();
        const std::size_t count = Schema::cardinality_row(hits.n);
        cov.combo_cardinality.add_declared(count);
        if (std::find(rows, rows + hits.n, schema.rdonly_row()) !=
            rows + hits.n)
            cov.combo_cardinality_rdonly.add_declared(count);
        for (std::size_t a = 0; a < hits.n; ++a)
            for (std::size_t b = a + 1; b < hits.n; ++b)
                cov.pairs.add(schema.pair_label(rows[a], rows[b]));
    }
}

void Analyzer::consume_output(const CanonicalView& view) {
    auto& hist = report_.outputs[view.id].hist;
    const std::int64_t ret = view.event->ret;
    const std::size_t row = schema_->classify_output(view.id, ret);
    if (row != Schema::npos) hist.add_declared(row);
    else hist.add(Schema::undeclared_output_label(ret));
}

}  // namespace iocov::core
