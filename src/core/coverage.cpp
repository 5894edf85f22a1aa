#include "core/coverage.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "core/schema.hpp"
#include "trace/binary_format.hpp"
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
    : schema_(std::move(schema)), report_(schema_->empty_report()) {
    if (schema_->open_flags_slot() == Schema::npos) return;
    pair_counts_.assign(schema_->pair_cells(), 0);
    touched_cells_.resize(schema_->pair_cells());
    const std::size_t rows = schema_->flag_rows();
    cells_per_entry_ = rows * (rows - 1) / 2;
    flags_memo_.resize(kFlagsMemoEntries);
    flags_cells_.resize(kFlagsMemoEntries * cells_per_entry_);
}

const SyscallTable& Analyzer::table() const { return schema_->table(); }

void Analyzer::consume(const trace::TraceEvent& event) {
    consume(event, schema_->table().bind(event.syscall));
}

template <class ArgAt>
void Analyzer::consume_bound(const SyscallTable::Binding& binding,
                             std::int64_t ret, const ArgAt& arg_at) {
    ++report_.events_seen;
    if (!binding.tracked) return;
    ++report_.events_tracked;

    const Schema& schema = *schema_;
    const std::size_t base_slot = schema.table().arg_offset(binding.id);
    for (std::size_t i = 0; i < binding.spec->args.size(); ++i) {
        const std::size_t slot = base_slot + i;
        const trace::ArgView value = arg_at(i, slot);
        if (!value) continue;  // variant without this argument
        ArgCoverage& cov = report_.inputs[slot];

        if (slot == schema.open_flags_slot()) {
            count_open_flags(cov, value);
            continue;
        }
        // Declared rows are bumped by index; only a value outside them
        // renders a label (SSO-sized), so the steady state allocates
        // nothing.
        const Schema::Hits hits = schema.classify_input(slot, value);
        for (std::size_t h = 0; h < hits.n; ++h)
            cov.hist.add_declared(hits.rows[h]);
        if (hits.undeclared)
            cov.hist.add(Schema::undeclared_input_label(value));
    }

    // Declarative inputs (e.g. parsed syzkaller programs) carry no
    // observed return value; they contribute input coverage only.
    if (ret == trace::kSyzNoReturn) return;
    auto& hist = report_.outputs[binding.id].hist;
    const std::size_t row = schema.classify_output(binding.id, ret);
    if (row != Schema::npos) hist.add_declared(row);
    else hist.add(Schema::undeclared_output_label(ret));
}

void Analyzer::count_open_flags(ArgCoverage& cov,
                                const trace::ArgView& value) {
    // Keyed by the whole word classification reads (a string reads as
    // 0); the multiplicative hash spreads the flag bits, which sit
    // above the low bits, over the entries.
    const auto word =
        static_cast<std::uint32_t>(value.int_value().value_or(0));
    static_assert((kFlagsMemoEntries & (kFlagsMemoEntries - 1)) == 0);
    const std::size_t index =
        (word * 0x9E3779B1u) >> (32 - std::countr_zero(kFlagsMemoEntries));
    FlagsEntry& e = flags_memo_[index];
    std::uint16_t* const cells =
        flags_cells_.data() + index * cells_per_entry_;
    if (!e.used || e.word != word) {
        // A miss classifies the word, then runs its cardinality, O_RDONLY
        // and pair work once for every later call with the same word.
        const Schema& schema = *schema_;
        const Schema::Hits hits =
            schema.classify_input(schema.open_flags_slot(), value);
        static_assert(std::tuple_size_v<decltype(hits.rows)> ==
                      FlagsEntry::kMaxRows);
        e.word = word;
        e.used = true;
        e.n = static_cast<std::uint16_t>(hits.n);
        std::copy_n(hits.rows.begin(), hits.n, e.rows.begin());
        e.cardinality =
            static_cast<std::uint16_t>(Schema::cardinality_row(hits.n));
        e.rdonly = std::find(e.rows.begin(), e.rows.begin() + e.n,
                             schema.rdonly_row()) != e.rows.begin() + e.n;
        e.n_cells = 0;
        for (std::size_t a = 0; a < e.n; ++a)
            for (std::size_t b = a + 1; b < e.n; ++b)
                cells[e.n_cells++] = static_cast<std::uint16_t>(
                    schema.pair_cell(e.rows[a], e.rows[b]));
    }

    for (std::size_t h = 0; h < e.n; ++h) cov.hist.add_declared(e.rows[h]);
    cov.combo_cardinality.add_declared(e.cardinality);
    if (e.rdonly) cov.combo_cardinality_rdonly.add_declared(e.cardinality);
    for (std::size_t c = 0; c < e.n_cells; ++c)
        if (pair_counts_[cells[c]]++ == 0)
            touched_cells_[touched_++] = cells[c];
}

void Analyzer::fold_pairs() {
    if (touched_ == 0) return;
    auto& pairs = report_.inputs[schema_->open_flags_slot()].pairs;
    for (std::size_t i = 0; i < touched_; ++i) {
        const std::uint32_t cell = touched_cells_[i];
        pairs.add(schema_->pair_label(cell),
                  std::exchange(pair_counts_[cell], 0));
    }
    touched_ = 0;
}

void Analyzer::consume(const trace::TraceEvent& event,
                       const SyscallTable::Binding& binding) {
    const auto view = SyscallTable::view(binding, event);
    consume_bound(binding, event.ret, [&](std::size_t i, std::size_t) {
        // Args arrive in prototype order, so position i is the first
        // place to look.
        const trace::ArgValue* v =
            view.find_hinted(view.spec->args[i].key, i);
        return v ? trace::ArgView(*v) : trace::ArgView();
    });
    fold_pairs();
}

void Analyzer::consume(const trace::EventBatch& batch,
                       const std::vector<std::string_view>& strings,
                       const SyscallTable::FileBinding& file) {
    if (!batch.keyed)
        throw std::invalid_argument(
            "Analyzer::consume: rows decoded without key codes");
    for (const trace::BatchRow& row : batch.rows) {
        const SyscallTable::Binding& binding = file.names[row.name_id];
        const trace::BatchArg* args = batch.args.data() + row.arg_begin;
        consume_bound(binding, row.ret, [&](std::size_t i, std::size_t slot) {
            // The same lookup as the event path's, by the name codes the
            // decode stamped: position i first, then the first argument
            // of that name, then the variant's implied argument.
            const SyscallTable::KeyCode want = schema_->table().slot_key(slot);
            if (i < row.arg_count && args[i].key == want)
                return args[i].view(strings);
            for (std::size_t a = 0; a < row.arg_count; ++a)
                if (args[a].key == want) return args[a].view(strings);
            if (binding.implied && binding.implied_key == want)
                return trace::ArgView(binding.implied->value);
            return trace::ArgView();
        });
    }
    fold_pairs();
}

void Analyzer::consume_all(const std::vector<trace::TraceEvent>& events) {
    for (const auto& ev : events) consume(ev);
}

}  // namespace iocov::core
