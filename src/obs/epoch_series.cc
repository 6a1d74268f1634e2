#include "obs/epoch_series.hh"

#include <algorithm>

#include "obs/csv.hh"
#include "obs/json.hh"

namespace sdpcm {

namespace {

/** Field list shared by the CSV/JSON dumpers (name, getter). */
struct Column
{
    const char* name;
    std::uint64_t (*get)(const EpochSample&);
};

const Column kColumns[] = {
    {"tick", [](const EpochSample& s) { return s.tick; }},
    {"reads_serviced",
     [](const EpochSample& s) { return s.readsServiced; }},
    {"reads_forwarded",
     [](const EpochSample& s) { return s.readsForwarded; }},
    {"writes_accepted",
     [](const EpochSample& s) { return s.writesAccepted; }},
    {"writes_completed",
     [](const EpochSample& s) { return s.writesCompleted; }},
    {"write_drains", [](const EpochSample& s) { return s.writeDrains; }},
    {"ecp_updates", [](const EpochSample& s) { return s.ecpUpdates; }},
    {"correction_writes",
     [](const EpochSample& s) { return s.correctionWrites; }},
    {"write_cancellations",
     [](const EpochSample& s) { return s.writeCancellations; }},
    {"cycles_read", [](const EpochSample& s) { return s.cyclesRead; }},
    {"cycles_preread",
     [](const EpochSample& s) { return s.cyclesPreRead; }},
    {"cycles_write", [](const EpochSample& s) { return s.cyclesWrite; }},
    {"cycles_verify",
     [](const EpochSample& s) { return s.cyclesVerify; }},
    {"cycles_correction",
     [](const EpochSample& s) { return s.cyclesCorrection; }},
    {"cycles_ecp", [](const EpochSample& s) { return s.cyclesEcp; }},
    {"read_queued", [](const EpochSample& s) { return s.readQueued; }},
    {"write_queued", [](const EpochSample& s) { return s.writeQueued; }},
    {"max_bank_write_queue",
     [](const EpochSample& s) { return s.maxBankWriteQueue; }},
    {"pending_corrections",
     [](const EpochSample& s) { return s.pendingCorrections; }},
};

} // namespace

const std::vector<std::string>&
EpochSeries::columns()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> v;
        for (const Column& c : kColumns)
            v.emplace_back(c.name);
        return v;
    }();
    return names;
}

void
EpochSeries::dumpCsv(std::ostream& os) const
{
    // Header comment: document the file's one non-obvious invariant so a
    // consumer need not find this source. Comment lines start with '#';
    // readers (including our own tests) skip them before the header row.
    os << "# sdpcm epoch series: one sample per epoch of " << epochTicks
       << " ticks (tick = sample time, end of epoch).\n"
       << "# Delta-sum invariant: every counter column (reads_serviced "
          "... cycles_ecp) holds the\n"
       << "# delta over its epoch, and summing a column over all rows "
          "reproduces the end-of-run\n"
       << "# CtrlStats total exactly. The queue columns (read_queued, "
          "write_queued,\n"
       << "# max_bank_write_queue, pending_corrections) are "
          "instantaneous gauges, not deltas.\n";
    bool first = true;
    for (const Column& c : kColumns) {
        os << (first ? "" : ",");
        csv::writeField(os, c.name);
        first = false;
    }
    os << "\n";
    for (const EpochSample& s : samples) {
        first = true;
        for (const Column& c : kColumns) {
            os << (first ? "" : ",") << c.get(s);
            first = false;
        }
        os << "\n";
    }
}

void
EpochSeries::dumpJson(std::ostream& os) const
{
    os << "{\"epoch_ticks\":" << epochTicks << ",\"samples\":[";
    bool first_sample = true;
    for (const EpochSample& s : samples) {
        os << (first_sample ? "\n" : ",\n") << "{";
        first_sample = false;
        bool first = true;
        for (const Column& c : kColumns) {
            os << (first ? "" : ",");
            json::writeString(os, c.name);
            os << ":";
            json::writeNumber(os, c.get(s));
            first = false;
        }
        os << "}";
    }
    os << "\n]}\n";
}

std::uint64_t
EpochSeries::peakReadQueued() const
{
    std::uint64_t peak = 0;
    for (const EpochSample& s : samples)
        peak = std::max(peak, s.readQueued);
    return peak;
}

std::uint64_t
EpochSeries::peakWriteQueued() const
{
    std::uint64_t peak = 0;
    for (const EpochSample& s : samples)
        peak = std::max(peak, s.writeQueued);
    return peak;
}

std::uint64_t
EpochSeries::peakPendingCorrections() const
{
    std::uint64_t peak = 0;
    for (const EpochSample& s : samples)
        peak = std::max(peak, s.pendingCorrections);
    return peak;
}

} // namespace sdpcm
