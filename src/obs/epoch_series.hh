/**
 * @file
 * The epoch time series of controller activity and its file formats.
 *
 * The end-of-run totals in CtrlStats hide the temporal structure the
 * SD-PCM mechanisms live in — LazyCorrection parking errors until a
 * burst of overflows, PreRead racing bank-idle windows, drains blocking
 * reads. The series is a fixed view of the telemetry frames
 * (obs/telemetry.hh): each frame contributes one row holding the
 * *delta* of 14 controller counters since the previous frame plus four
 * instantaneous queue gauges, so a run yields a time series instead of
 * one aggregate. Summing any delta column over all rows reproduces the
 * final CtrlStats total exactly (tested), and the rows dump as CSV or
 * JSON.
 */

#ifndef SDPCM_OBS_EPOCH_SERIES_HH
#define SDPCM_OBS_EPOCH_SERIES_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "pcm/timing.hh"

namespace sdpcm {

/** One epoch's worth of controller activity. */
struct EpochSample
{
    Tick tick = 0; //!< sample time (end of the epoch)

    // Counter deltas over the epoch.
    std::uint64_t readsServiced = 0;
    std::uint64_t readsForwarded = 0;
    std::uint64_t writesAccepted = 0;
    std::uint64_t writesCompleted = 0;
    std::uint64_t writeDrains = 0;
    std::uint64_t ecpUpdates = 0;
    std::uint64_t correctionWrites = 0;
    std::uint64_t writeCancellations = 0;
    std::uint64_t cyclesRead = 0;
    std::uint64_t cyclesPreRead = 0;
    std::uint64_t cyclesWrite = 0;
    std::uint64_t cyclesVerify = 0;
    std::uint64_t cyclesCorrection = 0;
    std::uint64_t cyclesEcp = 0;

    // Instantaneous gauges at the sample time.
    std::uint64_t readQueued = 0;      //!< pending reads, all banks
    std::uint64_t writeQueued = 0;     //!< queued writes, all banks
    std::uint64_t maxBankWriteQueue = 0;
    std::uint64_t pendingCorrections = 0;
};

/** The in-memory time series a run produces (carried by RunMetrics). */
struct EpochSeries
{
    Tick epochTicks = 0; //!< 0 when sampling was disabled
    std::vector<EpochSample> samples;

    bool enabled() const { return epochTicks > 0; }

    /** Column names, in the order dumpCsv() writes them. */
    static const std::vector<std::string>& columns();

    void dumpCsv(std::ostream& os) const;
    void dumpJson(std::ostream& os) const;

    // Aggregates over the series (epoch-derived run statistics).
    std::uint64_t peakReadQueued() const;
    std::uint64_t peakWriteQueued() const;
    std::uint64_t peakPendingCorrections() const;
};

} // namespace sdpcm

#endif // SDPCM_OBS_EPOCH_SERIES_HH
