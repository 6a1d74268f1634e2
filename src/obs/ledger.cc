#include "obs/ledger.hh"

#include <algorithm>
#include <ostream>

#include "common/logging.hh"
#include "common/table.hh"
#include "obs/json.hh"
#include "pcm/geometry.hh"

namespace sdpcm {

const char*
wdOutcomeName(WdOutcome outcome)
{
    switch (outcome) {
      case WdOutcome::Absorbed:
        return "Absorbed";
      case WdOutcome::Repaired:
        return "Repaired";
      case WdOutcome::Cancelled:
        return "Cancelled";
      case WdOutcome::Corrected:
        return "Corrected";
      case WdOutcome::Overwritten:
        return "Overwritten";
    }
    return "?";
}

std::uint64_t
WdLedgerSummary::outcomeTotal() const
{
    std::uint64_t n = 0;
    for (const std::uint64_t o : outcomes)
        n += o;
    return n;
}

void
WdLedgerSummary::merge(const WdLedgerSummary& other)
{
    if (!other.enabled)
        return;
    if (!enabled)
        linesPerRow = other.linesPerRow;
    SDPCM_ASSERT(linesPerRow == other.linesPerRow,
                 "merging ledgers of different geometries: ", linesPerRow,
                 " vs ", other.linesPerRow, " lines per row");
    enabled = true;
    flipsWl += other.flipsWl;
    flipsBl += other.flipsBl;
    flipsFromCorrection += other.flipsFromCorrection;
    for (unsigned i = 0; i < kNumWdOutcomes; ++i) {
        outcomes[i] += other.outcomes[i];
        lateFixes[i] += other.lateFixes[i];
    }
    outstanding += other.outstanding;
    cancels += other.cancels;
    cascadeDepth.merge(other.cascadeDepth);
    if (flipsByCore.size() < other.flipsByCore.size())
        flipsByCore.resize(other.flipsByCore.size(), 0);
    for (std::size_t c = 0; c < other.flipsByCore.size(); ++c)
        flipsByCore[c] += other.flipsByCore[c];
    absorbLatency.merge(other.absorbLatency);
    repairLatency.merge(other.repairLatency);
    correctLatency.merge(other.correctLatency);
    for (const auto& [key, entry] : other.blame)
        blame[key].merge(entry);
}

WdLedger::WdLedger(const EventQueue& events, const DimmGeometry& geometry)
    : events_(events), map_(geometry), linesPerRow_(geometry.linesPerRow())
{
    SDPCM_ASSERT(static_cast<std::uint64_t>(geometry.banks()) *
                         geometry.rowsPerBank * linesPerRow_ <=
                     kNil,
                 "DIMM geometry exceeds 32-bit line indices");
    agg_.enabled = true;
    agg_.linesPerRow = linesPerRow_;
}

std::uint32_t
WdLedger::recordOf(std::uint32_t line)
{
    return index_.findOrInsert(line, [this] {
        lines_.emplace_back();
        return static_cast<std::uint32_t>(lines_.size() - 1);
    });
}

std::uint32_t
WdLedger::blameOf(const LineAddr& la)
{
    // Consecutive flips of one program round blame the same aggressor.
    const std::uint32_t line = map_.lineIndex(la);
    if (line == lastAggressor_)
        return lastBlame_;
    LineRecord& rec = lines_[recordOf(line)];
    if (rec.blame == kNil) {
        rec.blame = static_cast<std::uint32_t>(blame_.size());
        blame_.push_back(Blame{line, {}});
    }
    lastAggressor_ = line;
    lastBlame_ = rec.blame;
    return rec.blame;
}

void
WdLedger::freeFlips(std::uint32_t n, std::uint32_t last)
{
    flips_[last].next = freeFlip_;
    freeFlip_ = n;
}

void
WdLedger::noteCancel(const LineAddr& aggressor)
{
    agg_.cancels += 1;
    blame_[blameOf(aggressor)].entry.cancels += 1;
}

void
WdLedger::recordFlip(const LineAddr& aggressor, bool from_correction,
                     const LineAddr& victim, unsigned pos, bool word_line)
{
    const std::uint32_t b = blameOf(aggressor);
    const std::uint32_t v = recordOf(map_.lineIndex(victim));
    std::uint32_t n = freeFlip_;
    if (n == kNil) {
        n = static_cast<std::uint32_t>(flips_.size());
        flips_.emplace_back();
    } else {
        freeFlip_ = flips_[n].next;
    }
    flips_[n] = PendingFlip{events_.now(), b, kNil,
                            static_cast<std::uint16_t>(pos)};
    LineRecord& rec = lines_[v];
    if (rec.tail == kNil)
        rec.head = n;
    else
        flips_[rec.tail].next = n;
    rec.tail = n;
    pendingCount_ += 1;

    WdBlameEntry& e = blame_[b].entry;
    if (word_line) {
        agg_.flipsWl += 1;
        e.flipsWl += 1;
    } else {
        agg_.flipsBl += 1;
        e.flipsBl += 1;
    }
    if (from_correction) {
        agg_.flipsFromCorrection += 1;
        e.fromCorrection += 1;
    }
    agg_.cascadeDepth.record(curDepth_);
    if (agg_.flipsByCore.size() <= curCore_)
        agg_.flipsByCore.resize(curCore_ + 1, 0);
    agg_.flipsByCore[curCore_] += 1;
}

void
WdLedger::account(const PendingFlip& f, WdOutcome outcome)
{
    const unsigned o = static_cast<unsigned>(outcome);
    agg_.outcomes[o] += 1;
    blame_[f.blame].entry.outcomes[o] += 1;
    const double wait = static_cast<double>(events_.now() - f.tick);
    switch (outcome) {
      case WdOutcome::Absorbed:
        agg_.absorbLatency.record(wait);
        break;
      case WdOutcome::Repaired:
      case WdOutcome::Cancelled:
        agg_.repairLatency.record(wait);
        break;
      case WdOutcome::Corrected:
        agg_.correctLatency.record(wait);
        break;
      case WdOutcome::Overwritten:
        break; // not a correction cost; latency is meaningless
    }
}

void
WdLedger::resolve(const LineAddr& victim, unsigned pos, WdOutcome outcome,
                  bool is_fix_event)
{
    const std::uint32_t r = index_.find(map_.lineIndex(victim));
    if (r != kNil) {
        LineRecord& rec = lines_[r];
        std::uint32_t prev = kNil;
        for (std::uint32_t n = rec.head; n != kNil;
             prev = n, n = flips_[n].next) {
            if (flips_[n].pos != pos)
                continue;
            account(flips_[n], outcome);
            pendingCount_ -= 1;
            // As a vector's swap-remove: the list's last flip takes the
            // resolved flip's place and the last node goes. The order
            // decides which of several flips of one cell a later fix
            // resolves.
            std::uint32_t before_tail = prev;
            if (n != rec.tail) {
                before_tail = n;
                while (flips_[before_tail].next != rec.tail)
                    before_tail = flips_[before_tail].next;
                const std::uint32_t next = flips_[n].next;
                flips_[n] = flips_[rec.tail];
                flips_[n].next = next;
            }
            freeFlips(rec.tail, rec.tail);
            if (before_tail == kNil)
                rec.head = kNil;
            else
                flips_[before_tail].next = kNil;
            rec.tail = before_tail;
            return;
        }
    }
    // A fix touched a cell with no pending flip: e.g. a correction
    // write re-RESETs a cell whose flip was already parked in ECP.
    // Booked per class, never asserted against.
    if (is_fix_event)
        agg_.lateFixes[static_cast<unsigned>(outcome)] += 1;
}

void
WdLedger::flipAbsorbed(const LineAddr& victim, unsigned pos)
{
    resolve(victim, pos, WdOutcome::Absorbed, true);
}

void
WdLedger::flipRepaired(const LineAddr& victim, unsigned pos)
{
    resolve(victim, pos,
            inCancelRepair_ ? WdOutcome::Cancelled : WdOutcome::Repaired,
            true);
}

void
WdLedger::flipCorrected(const LineAddr& victim, unsigned pos)
{
    resolve(victim, pos, WdOutcome::Corrected, true);
}

void
WdLedger::noteLineWritten(const LineAddr& line)
{
    const std::uint32_t r = index_.find(map_.lineIndex(line));
    if (r == kNil || lines_[r].head == kNil)
        return;
    LineRecord& rec = lines_[r];
    for (std::uint32_t n = rec.head; n != kNil; n = flips_[n].next) {
        account(flips_[n], WdOutcome::Overwritten);
        pendingCount_ -= 1;
    }
    freeFlips(rec.head, rec.tail);
    rec.head = rec.tail = kNil;
}

WdLedgerSummary
WdLedger::summarize() const
{
    WdLedgerSummary s = agg_;
    s.outstanding = pendingCount_;
    // Line-index order is blame-key order: sort once, then every map
    // insert lands at the end.
    std::vector<std::pair<std::uint32_t, std::uint32_t>> order;
    order.reserve(blame_.size());
    for (std::uint32_t i = 0; i < blame_.size(); ++i)
        order.emplace_back(blame_[i].line, i);
    std::sort(order.begin(), order.end());
    for (const auto& [line, i] : order)
        s.blame.emplace_hint(s.blame.end(), keyOf(map_.lineAt(line)),
                             blame_[i].entry);
    SDPCM_ASSERT(s.outcomeTotal() + s.outstanding == s.flips(),
                 "ledger outcomes (", s.outcomeTotal(), ") + outstanding (",
                 s.outstanding, ") != flips (", s.flips(), ")");
    return s;
}

namespace {

/** "b2/r123/l45" display form of a blame key. */
std::string
aggressorName(std::uint64_t key, unsigned lines_per_row)
{
    const std::uint64_t bank = key >> 48;
    const std::uint64_t rowline = key & ((std::uint64_t(1) << 48) - 1);
    return "b" + std::to_string(bank) + "/r" +
           std::to_string(rowline / lines_per_row) + "/l" +
           std::to_string(rowline % lines_per_row);
}

} // namespace

void
printWdTop(std::ostream& os, const std::string& label,
           const WdLedgerSummary& summary, unsigned top_n)
{
    using Row = std::pair<std::uint64_t, const WdBlameEntry*>;
    std::vector<Row> rows;
    rows.reserve(summary.blame.size());
    for (const auto& [key, entry] : summary.blame)
        rows.emplace_back(key, &entry);
    // Map order is key order, so equal-flip aggressors stay address-
    // sorted and the table is deterministic.
    std::stable_sort(rows.begin(), rows.end(),
                     [](const Row& a, const Row& b) {
                         return a.second->flips() > b.second->flips();
                     });
    if (rows.size() > top_n)
        rows.resize(top_n);

    os << "wd ledger [" << label << "] - " << summary.flips()
       << " flips (wl " << summary.flipsWl << " / bl " << summary.flipsBl
       << "), " << summary.flipsFromCorrection << " by corrections, "
       << summary.outstanding << " outstanding, " << summary.cancels
       << " cancels\n";
    TablePrinter table({"aggressor", "flips", "wl", "bl", "cascade",
                        "absorbed", "repaired", "corrected",
                        "overwritten", "cancels"});
    const auto at = [](const WdBlameEntry& e, WdOutcome o) {
        return e.outcomes[static_cast<unsigned>(o)];
    };
    for (const Row& row : rows) {
        const WdBlameEntry& e = *row.second;
        table.addRow(
            {aggressorName(row.first, summary.linesPerRow),
             std::to_string(e.flips()), std::to_string(e.flipsWl),
             std::to_string(e.flipsBl), std::to_string(e.fromCorrection),
             std::to_string(at(e, WdOutcome::Absorbed)),
             std::to_string(at(e, WdOutcome::Repaired) +
                            at(e, WdOutcome::Cancelled)),
             std::to_string(at(e, WdOutcome::Corrected)),
             std::to_string(at(e, WdOutcome::Overwritten)),
             std::to_string(e.cancels)});
    }
    table.print(os);
}

void
wdLedgerToJson(JsonWriter& w, const WdLedgerSummary& summary)
{
    const auto latency = [&](const char* name, const LatencyStat& l) {
        w.key(name).beginObject();
        w.kv("count", l.count());
        w.kv("mean", l.mean());
        w.kv("p50", l.percentile(0.50));
        w.kv("p99", l.percentile(0.99));
        w.endObject();
    };

    w.beginObject();
    w.kv("flips", summary.flips());
    w.kv("flipsWl", summary.flipsWl);
    w.kv("flipsBl", summary.flipsBl);
    w.kv("flipsFromCorrection", summary.flipsFromCorrection);
    w.kv("outstanding", summary.outstanding);
    w.kv("cancels", summary.cancels);
    w.key("outcomes").beginObject();
    for (unsigned i = 0; i < kNumWdOutcomes; ++i)
        w.kv(wdOutcomeName(static_cast<WdOutcome>(i)),
             summary.outcomes[i]);
    w.endObject();
    w.key("lateFixes").beginObject();
    for (unsigned i = 0; i < kNumWdOutcomes; ++i) {
        if (summary.lateFixes[i] > 0)
            w.kv(wdOutcomeName(static_cast<WdOutcome>(i)),
                 summary.lateFixes[i]);
    }
    w.endObject();
    w.key("cascadeDepth").beginObject();
    w.kv("mean", summary.cascadeDepth.mean());
    w.kv("p99", summary.cascadeDepth.percentile(0.99));
    w.key("buckets").beginObject();
    for (std::size_t d = 0; d < summary.cascadeDepth.numBuckets(); ++d) {
        if (summary.cascadeDepth.bucket(d) > 0)
            w.kv(std::to_string(d), summary.cascadeDepth.bucket(d));
    }
    if (summary.cascadeDepth.overflow() > 0)
        w.kv("overflow", summary.cascadeDepth.overflow());
    w.endObject();
    w.endObject();
    w.key("flipsByCore").beginArray();
    for (const std::uint64_t n : summary.flipsByCore)
        w.value(n);
    w.endArray();
    w.key("latency").beginObject();
    latency("absorb", summary.absorbLatency);
    latency("repair", summary.repairLatency);
    latency("correct", summary.correctLatency);
    w.endObject();

    // The blame table can cover every written line; the export keeps
    // the heaviest aggressors (deterministic order) plus the total so
    // consumers know what was truncated.
    constexpr std::size_t kMaxAggressors = 100;
    using Row = std::pair<std::uint64_t, const WdBlameEntry*>;
    std::vector<Row> rows;
    rows.reserve(summary.blame.size());
    for (const auto& [key, entry] : summary.blame)
        rows.emplace_back(key, &entry);
    std::stable_sort(rows.begin(), rows.end(),
                     [](const Row& a, const Row& b) {
                         return a.second->flips() > b.second->flips();
                     });
    w.kv("aggressorsTotal", static_cast<std::uint64_t>(rows.size()));
    if (rows.size() > kMaxAggressors)
        rows.resize(kMaxAggressors);
    w.key("topAggressors").beginArray();
    for (const Row& row : rows) {
        const WdBlameEntry& e = *row.second;
        w.beginObject();
        w.kv("bank", row.first >> 48);
        const std::uint64_t rowline =
            row.first & ((std::uint64_t(1) << 48) - 1);
        w.kv("row", rowline / summary.linesPerRow);
        w.kv("line", rowline % summary.linesPerRow);
        w.kv("flipsWl", e.flipsWl);
        w.kv("flipsBl", e.flipsBl);
        w.kv("fromCorrection", e.fromCorrection);
        w.kv("cancels", e.cancels);
        w.key("outcomes").beginObject();
        for (unsigned i = 0; i < kNumWdOutcomes; ++i) {
            if (e.outcomes[i] > 0)
                w.kv(wdOutcomeName(static_cast<WdOutcome>(i)),
                     e.outcomes[i]);
        }
        w.endObject();
        w.endObject();
    }
    w.endArray();
    w.endObject();
}

void
writeWdLedgerJson(std::ostream& os, const std::string& bench,
                  const std::vector<WdLedgerEntry>& entries)
{
    JsonWriter w(os);
    w.beginObject();
    w.kv("kind", "sdpcm_wd_ledger");
    w.kv("schema_version", std::uint64_t(1));
    w.kv("bench", bench);
    w.key("runs").beginArray();
    for (const WdLedgerEntry& e : entries) {
        w.beginObject();
        w.kv("scheme", e.scheme);
        w.kv("workload", e.workload);
        w.key("wd");
        wdLedgerToJson(w, *e.summary);
        w.endObject();
    }
    w.endArray();
    w.endObject();
}

void
addWdLedgerMetrics(StatSnapshot& s, const WdLedgerSummary& summary)
{
    if (!summary.enabled)
        return;
    const auto at = [&](WdOutcome o) {
        return static_cast<double>(
            summary.outcomes[static_cast<unsigned>(o)]);
    };
    const auto late = [&](WdOutcome o) {
        return static_cast<double>(
            summary.lateFixes[static_cast<unsigned>(o)]);
    };
    s.set("wd.flips", static_cast<double>(summary.flips()));
    s.set("wd.flipsWl", static_cast<double>(summary.flipsWl));
    s.set("wd.flipsBl", static_cast<double>(summary.flipsBl));
    s.set("wd.flipsFromCorrection",
          static_cast<double>(summary.flipsFromCorrection));
    s.set("wd.absorbed", at(WdOutcome::Absorbed));
    s.set("wd.repaired", at(WdOutcome::Repaired));
    s.set("wd.cancelRepaired", at(WdOutcome::Cancelled));
    s.set("wd.corrected", at(WdOutcome::Corrected));
    s.set("wd.overwritten", at(WdOutcome::Overwritten));
    s.set("wd.outstanding", static_cast<double>(summary.outstanding));
    s.set("wd.cancels", static_cast<double>(summary.cancels));
    s.set("wd.lateAbsorbs", late(WdOutcome::Absorbed));
    s.set("wd.lateRepairs", late(WdOutcome::Repaired));
    s.set("wd.lateCorrects", late(WdOutcome::Corrected));
    s.set("wd.aggressorLines",
          static_cast<double>(summary.blame.size()));
    s.set("wd.cascadeDepth.mean", summary.cascadeDepth.mean());
    s.set("wd.cascadeDepth.p99", summary.cascadeDepth.percentile(0.99));
    s.set("wd.absorbLatency.mean", summary.absorbLatency.mean());
    s.set("wd.absorbLatency.p99",
          summary.absorbLatency.percentile(0.99));
    s.set("wd.repairLatency.mean", summary.repairLatency.mean());
    s.set("wd.repairLatency.p99",
          summary.repairLatency.percentile(0.99));
    s.set("wd.correctLatency.mean", summary.correctLatency.mean());
    s.set("wd.correctLatency.p99",
          summary.correctLatency.percentile(0.99));
}

} // namespace sdpcm
