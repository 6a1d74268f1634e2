/**
 * @file
 * Functional + fault model of the super dense PCM DIMM.
 *
 * The device stores physical cell states for every changed line (a line's
 * never-changed content is deterministic pseudo-random data derived from
 * its address; DESIGN §7.1 says when a line is materialised), applies
 * DIN encoding on the write path, injects thermal write
 * disturbance into word-line and bit-line neighbours of every RESET pulse,
 * maintains per-line ECP metadata (hard errors + LazyCorrection WD
 * parking) and tracks wear for the lifetime studies.
 *
 * Timing is the memory controller's job: the device exposes writes as a
 * sequence of <=128-cell program rounds so the controller can charge each
 * round's bank occupancy and support mid-write cancellation; a cancelled
 * write simply stops applying rounds, leaving the partially-programmed
 * state (and any disturbance already caused) in place, exactly the
 * behaviour Section 6.8 attributes to write cancellation in SD-PCM.
 */

#ifndef SDPCM_PCM_DEVICE_HH
#define SDPCM_PCM_DEVICE_HH

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/line_index.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "obs/profiler.hh"
#include "encoding/diffwrite.hh"
#include "encoding/din.hh"
#include "encoding/fnw.hh"
#include "pcm/address.hh"
#include "pcm/ecp.hh"
#include "pcm/geometry.hh"
#include "pcm/line.hh"
#include "pcm/timing.hh"

namespace sdpcm {

class FaultInjector;
class WdLedger;

/** Per-direction disturbance probabilities (per RESET, vulnerable cell). */
struct WdRates
{
    double wordLine = 0.099; //!< Table 1, 4F^2 word-line neighbour
    double bitLine = 0.115;  //!< Table 1, 4F^2 bit-line neighbour
};

/** Endurance / aging model parameters (Figure 14). */
struct AgingConfig
{
    /** Fraction of DIMM lifetime already consumed, in [0, 1]. */
    double ageFraction = 0.0;
    /** Mean hard errors per line when the DIMM reaches end of life. */
    double meanHardPerLineAtEol = 2.0;
    /** Wear-out acceleration exponent (errors ~ mean * age^exponent). */
    double exponent = 3.0;
};

/**
 * Per-line activity counters for spatial heatmaps (opt-in).
 *
 * Disabled by default: the hot path pays only a predictable branch per
 * increment site when `DeviceConfig::lineCounters` is off, and the
 * counters (24 bytes/line) live in a side array that exists only when
 * the option is on.
 */
struct LineCounters
{
    std::uint32_t writes = 0;      //!< completed normal data writes
    std::uint32_t wdFlips = 0;     //!< WD flips landed on this line (victim)
    std::uint32_t wdAbsorbed = 0;  //!< WD errors parked in this line's ECP
    std::uint32_t wdCorrected = 0; //!< cells fixed by correction/DIN repair
    std::uint32_t ecpHighWater = 0; //!< peak ECP entries in use
    /** Data cells programmed on this line (wear: every program pulse of
     *  normal writes, corrections and WL repairs; across all touched
     *  lines this telescopes to DeviceStats::dataCellWrites). */
    std::uint32_t cellWrites = 0;
};

/** One line's counters with its address (heatmap export). */
struct LineCounterSample
{
    LineAddr addr;
    LineCounters counters;
};

/** Device configuration. */
struct DeviceConfig
{
    DimmGeometry geometry;
    PcmTiming timing;
    WdRates rates;          //!< set bitLine = 0 for the 8F^2 DIN design
    unsigned ecpEntries = 6;
    bool dinEnabled = true;
    /**
     * Use the Flip-N-Write group-inversion encoder on the data chip
     * instead of DIN (mutually exclusive with dinEnabled). FNW minimises
     * programmed cells but, unlike DIN, gives no word-line disturbance
     * suppression — the full Table 1 rate applies.
     */
    bool fnwEnabled = false;
    DinConfig din;
    AgingConfig aging;
    std::uint64_t seed = 1;
    /** Track per-line LineCounters for spatial heatmaps (see above). */
    bool lineCounters = false;
};

/** Aggregate device statistics. */
struct DeviceStats
{
    std::uint64_t lineReads = 0;
    std::uint64_t lineWrites = 0;       //!< completed normal writes
    std::uint64_t correctionWrites = 0; //!< completed correction writes

    std::uint64_t dataCellWrites = 0;       //!< all programmed cells
    std::uint64_t normalCellWrites = 0;     //!< from normal writes
    std::uint64_t correctionCellWrites = 0; //!< from corrections + WL fixes

    std::uint64_t wlDisturbances = 0; //!< word-line WD errors injected
    std::uint64_t blDisturbances = 0; //!< bit-line WD errors injected

    std::uint64_t ecpWdRecorded = 0;  //!< WD errors parked in ECP
    std::uint64_t ecpOverflows = 0;   //!< WD parking attempts that spilled
    std::uint64_t ecpBitsWritten = 0; //!< differential cell writes, ECP chip
    std::uint64_t ecpWdReleased = 0;  //!< WD entries cleared by writes
    std::uint64_t hardErrors = 0;     //!< stuck-at cells materialised
    std::uint64_t ecpSaturatedLines = 0; //!< hard errors exceeding ECP-N
    std::uint64_t injectedStuckCells = 0; //!< fault-injected stuck cells

    /** Figure 4(a): WD errors within the written word-line, per write. */
    RunningStat wlErrorsPerWrite;
    /** Figure 4(b): WD errors per adjacent line, per write. */
    RunningStat blErrorsPerAdjacentLine;
    Histogram blErrorHistogram{16};
};

/** The PCM DIMM functional model. */
class PcmDevice
{
  public:
    explicit PcmDevice(const DeviceConfig& config);

    const DeviceConfig& config() const { return config_; }
    const AddressMap& addressMap() const { return map_; }

    /** Override disturbance rates at runtime (tests, aging studies). */
    void
    setRates(const WdRates& rates)
    {
        config_.rates = rates;
    }
    DeviceStats& stats() { return stats_; }
    const DeviceStats& stats() const { return stats_; }

    /**
     * Attach a deterministic fault source (see verify/faultinject.hh).
     * Injected stuck cells apply to lines materialised after this call
     * (an attached injector also makes every access materialise), so
     * attach before the first access; WD boosts apply immediately. The
     * injector draws from its own RNG stream — the device's sequence is
     * identical with and without one attached.
     */
    void setFaultInjector(FaultInjector* inject) { inject_ = inject; }

    /**
     * Attach the disturbance-provenance ledger (obs/ledger.hh). Same
     * discipline as the other observers: null when off, one null check
     * per emission site, and strictly observe-only — the device's RNG
     * and cell sequences are identical with and without one attached.
     */
    void setLedger(WdLedger* ledger) { ledger_ = ledger; }

    /**
     * Attach the host-time profiler (obs/profiler.hh). Null when off;
     * attached it times the device's three measured hot loops — the
     * RESET/SET pulse loop, the neighbour-WD probe loop and line
     * readout — without touching the RNG or cell state.
     */
    void setProfiler(HostProfiler* prof) { prof_ = prof; }

    /**
     * Running maximum of per-line programmed-cell counts (wear-skew
     * telemetry gauge). 0 unless `DeviceConfig::lineCounters` is on.
     */
    std::uint32_t maxLineCellWrites() const { return maxLineCellWrites_; }

    /**
     * Logical-space mask of cells whose intended value the line cannot
     * represent: stuck-at cells beyond ECP capacity. The integrity oracle
     * excludes these positions from content comparisons.
     */
    LineData uncorrectableMask(const LineAddr& addr);

    /** Logical read: raw cells + ECP overlay + DIN decode. */
    LineData readLine(const LineAddr& addr);

    /**
     * Functional backdoor read (no statistics): used by the workload layer
     * to synthesise write payloads with a controlled bit-flip density.
     */
    LineData peekLine(const LineAddr& addr);

    /**
     * An in-flight write, broken into program rounds.
     *
     * For a normal write the target is the DIN encoding of the new logical
     * data against current cell states; for a correction write the target
     * RESETs the named disturbed cells.
     */
    /** One program pulse group: <=parallelism cells of one kind. */
    struct ProgramRound
    {
        LineData mask;       //!< cells this round programs
        bool isReset = false;
    };

  private:
    struct LineState;

  public:
    struct WritePlan
    {
        LineAddr addr;
        LineData targetPhysical;  //!< desired cell states (stuck cells excl.)
        LineData intendedPhysical; //!< target before stuck-cell masking
        std::uint64_t targetFlags = 0;
        WriteMasks masks;          //!< full program masks (diagnostics)
        LineData writtenMask;      //!< all cells this write programs
        std::vector<ProgramRound> rounds;
        std::size_t nextRound = 0;
        bool isCorrection = false;
        // Disturbance bookkeeping for this write.
        std::vector<unsigned> wlHits;   //!< in-row disturbed cell keys
        unsigned blHitsUpper = 0;
        unsigned blHitsLower = 0;
        // Stable handles into the device's line store (DESIGN §7.1). The
        // written line is resolved when the plan is made; each neighbour
        // (same row: left/right line; adjacent rows: upper/lower) is
        // resolved at its first use if the store holds it, else at its
        // first flip, and then kept for every round and for finishWrite.
        // Re-planning clears all five.
        LineState* line = nullptr;
        LineState* left = nullptr;
        LineState* right = nullptr;
        LineState* upper = nullptr;
        LineState* lower = nullptr;

        bool
        roundsRemaining() const
        {
            return nextRound < rounds.size();
        }

        unsigned
        totalRounds() const
        {
            return static_cast<unsigned>(rounds.size());
        }
    };

    /** Plan a normal write of logical data. */
    WritePlan planWrite(const LineAddr& addr, const LineData& new_logical);

    /**
     * Plan a normal write into an existing plan object, reusing its
     * heap buffers (rounds, wlHits). The hot path re-plans every write
     * service; recycling the vectors keeps it allocation-free.
     */
    void planWriteInto(WritePlan& plan, const LineAddr& addr,
                       const LineData& new_logical);

    /** Plan a correction write RESETting the given disturbed cells. */
    WritePlan planCorrection(const LineAddr& addr,
                             const std::vector<unsigned>& cells);

    /** Buffer-reusing variant of planCorrection (see planWriteInto). */
    void planCorrectionInto(WritePlan& plan, const LineAddr& addr,
                            const std::vector<unsigned>& cells);

    /** Outcome of one program round. */
    struct RoundOutcome
    {
        bool isReset = false;
        Tick latency = 0;
        unsigned wlErrors = 0; //!< in-row disturbances injected
        unsigned blErrors = 0; //!< adjacent-row disturbances injected
    };

    /** Timing preview of the next pending round (no state change). */
    struct RoundPeek
    {
        bool valid = false;
        bool isReset = false;
        Tick latency = 0;
    };

    /**
     * Inspect the next pending round without applying it; the controller
     * charges the latency first and applies effects at completion, which
     * is what makes mid-operation write cancellation clean.
     */
    RoundPeek peekNextRound(const WritePlan& plan) const;

    /**
     * Apply the next pending round (RESET rounds first, then SET rounds).
     * @return false if the plan is already complete.
     */
    bool applyNextRound(WritePlan& plan, RoundOutcome& outcome);

    /** Result of completing a write. */
    struct FinishOutcome
    {
        unsigned wlErrorsFixed = 0;   //!< DIN check-and-rewrite repairs
        unsigned ecpWdReleased = 0;   //!< WD entries absorbed by the write
    };

    /**
     * Complete a write whose rounds have all been applied: repair the
     * word-line disturbances this write caused inside its own row (the DIN
     * check-and-rewrite step), commit flag bits, refresh stuck-cell ECP
     * values, and release the line's parked WD entries.
     */
    FinishOutcome finishWrite(WritePlan& plan);

    /**
     * Repair the in-row (word-line) disturbances recorded in the plan's
     * hit list (idempotent: each repair is a getBit-guarded RESET; the
     * list itself is left intact for stats and is cleared by the next
     * re-plan). finishWrite does this implicitly; an aborted (cancelled)
     * write must call it explicitly before releasing the bank, or the
     * damage on ADJACENT lines leaks: re-planning clears the hit list
     * and the re-plan diff only re-covers the written line itself —
     * and until the entry recommits, idle-window reads and pre-read
     * captures would observe the torn neighbours.
     * @return the number of cells actually repaired.
     */
    unsigned repairWlHits(WritePlan& plan);

    /**
     * Compare the line's current logical content against `expected` and
     * return the positions that differ (the disturbed cells).
     */
    std::vector<unsigned> verifyLine(const LineAddr& addr,
                                     const LineData& expected);

    /** Scratch-reusing variant: `out` is cleared and refilled. */
    void verifyLineInto(const LineAddr& addr, const LineData& expected,
                        std::vector<unsigned>& out);

    /**
     * LazyCorrection: try to park the given disturbed cells in the line's
     * free ECP entries.
     * @return true if all cells are now covered; false on overflow (no
     *         entries were consumed beyond those that fit).
     */
    bool recordWdInEcp(const LineAddr& addr,
                       const std::vector<unsigned>& cells);

    /** ECP occupancy of a line (X in the X+Y<=N test). */
    unsigned ecpUsed(const LineAddr& addr);
    unsigned ecpFree(const LineAddr& addr);

    /** Cells currently parked as WD entries in the line's ECP table. */
    std::vector<unsigned> ecpWdCells(const LineAddr& addr);

    /** Scratch-reusing variant: `out` is cleared and refilled. */
    void ecpWdCellsInto(const LineAddr& addr, std::vector<unsigned>& out);

    /**
     * Number of lines the store holds (test/diagnostic hook): the lines
     * changed at least once, or, on an eager store (see lazyLines), every
     * line accessed at all.
     */
    std::size_t touchedLines() const;

    /**
     * Snapshot of every materialised line's counters, sorted by
     * (bank, row, line). Empty unless `DeviceConfig::lineCounters` is set.
     */
    std::vector<LineCounterSample> lineCounterSamples() const;

  private:
    /** A stuck-at cell: (position, stuck value). */
    using HardCell = std::pair<std::uint16_t, bool>;

    /**
     * Per-line state few lines ever need (DESIGN §7.1): the ECP table,
     * the ECP-chip slot image and the stuck-at cells. A line gets one at
     * its first hard cell or first parked WD entry (the slot image can
     * only turn non-zero once an entry exists); it is never freed.
     */
    struct ColdLine
    {
        EcpLine ecp;
        std::vector<HardCell> hardCells;
        /** Last content written to each ECP entry slot (wear model);
         *  empty until the first non-zero image, and a missing slot
         *  reads as zero. */
        std::vector<std::uint16_t> ecpSlotImage;
    };

    static constexpr std::uint32_t kNoCold = 0xffffffffu;

    /** The hot per-line record: all the read path and WD scan touch. */
    struct LineState
    {
        LineData physical;
        std::uint64_t dinFlags = 0;
        std::uint32_t cold = kNoCold; //!< cold-pool position, if any
        std::uint32_t pos = 0;        //!< own pool position (counters)
    };
    static_assert(sizeof(LineState) <= 80,
                  "the hot line record must stay within 80 bytes");

    /** Find a line's state, materialising it if the store lacks it. */
    LineState& state(const LineAddr& addr);

    /**
     * True while a never-changed line's content is a pure function of
     * its address, so a read-only use need not materialise it (DESIGN
     * §7.1): no aging draws, no fault injector and no per-line counters.
     */
    bool
    lazyLines() const
    {
        return hardErrorMean_ == 0.0 && !inject_ && !config_.lineCounters;
    }

    /**
     * A line's state for a read-only use: null for a line the lazy store
     * does not hold (its content is pristine(addr), its flags 0, and it
     * has no cold record); an eager store materialises it.
     */
    LineState* lookup(const LineAddr& addr);

    /** Resolve a plan handle for a neighbour probe: a held line is kept
     *  for later rounds; an absent one stays null until its first flip. */
    LineState*
    probe(LineState*& handle, const LineAddr& addr)
    {
        if (!handle)
            handle = lookup(addr);
        return handle;
    }

    /** Resolve a plan handle for a flip, materialising a never-changed
     *  line; later uses are free. */
    LineState&
    resolve(LineState*& handle, const LineAddr& addr)
    {
        if (!handle)
            handle = &state(addr);
        return *handle;
    }

    /**
     * True if cell `pos` is an idle '0' that heat can SET: not already
     * '1' and not stuck. `held` is the line's state from lookup(), or
     * null for a never-changed line.
     */
    bool
    vulnerable(const LineState* held, const LineAddr& addr,
               unsigned pos) const
    {
        return held ? !held->physical.getBit(pos) && !isHardCell(*held, pos)
                    : !pristineBit(addr, pos);
    }

    /** DIMM-wide line index of an address, range-checked. */
    std::uint32_t checkedIndex(const LineAddr& addr) const;

    /** Row-local key: row * linesPerRow + line (content seed). */
    std::uint64_t lineKey(const LineAddr& addr) const;

    /** Seed of a line's never-changed content. */
    std::uint64_t contentKey(const LineAddr& addr) const;

    /** A line's never-changed content (its cells before any change). */
    LineData
    pristine(const LineAddr& addr) const
    {
        return LineData::randomFromKey(contentKey(addr));
    }

    /** Cell `pos` of pristine(addr), from the one word holding it. */
    bool
    pristineBit(const LineAddr& addr, unsigned pos) const
    {
        return (LineData::randomWordFromKey(contentKey(addr), pos >> 6) >>
                (pos & 63)) & 1;
    }

    /** Build a new line's state (may draw from rng_). */
    void materialise(LineState& ls, const LineAddr& addr);

    LineState&
    poolAt(std::uint32_t i) const
    {
        return pool_[i >> kPoolChunkShift][i & (kPoolChunkLines - 1)];
    }

    /** Reset a plan for reuse, keeping its vectors' capacity. */
    static void resetPlan(WritePlan& plan, const LineAddr& addr);

    /** Finalise a plan's masks and rounds from its target state. */
    void sealPlan(WritePlan& plan, const LineState& ls);

    /** Decompose a plan's program masks into driver rounds. */
    void buildRounds(WritePlan& plan);

    /** True if `pos` is a stuck-at cell of the line; free for the
     *  (common) line without a cold record. */
    bool
    isHardCell(const LineState& ls, unsigned pos) const
    {
        return ls.cold != kNoCold && isHardCell(coldAt(ls.cold), pos);
    }
    static bool isHardCell(const ColdLine& cold, unsigned pos);

    /** The line's cold record, or null if it has none. */
    ColdLine*
    coldOf(const LineState& ls) const
    {
        return ls.cold == kNoCold ? nullptr : &coldAt(ls.cold);
    }

    /** The cold record of the line at `addr`, for a read-only use. */
    ColdLine*
    coldOf(const LineAddr& addr)
    {
        const LineState* ls = lookup(addr);
        return ls ? coldOf(*ls) : nullptr;
    }

    /** The line's cold record, created on first use. */
    ColdLine& coldFor(LineState& ls);

    ColdLine&
    coldAt(std::uint32_t i) const
    {
        return cold_[i >> kPoolChunkShift][i & (kPoolChunkLines - 1)];
    }

    /** Pin a materialising line's stuck-at cell in its ECP table. */
    void addHardCell(LineState& ls, unsigned pos);

    /** The line's side counters (only when config_.lineCounters). */
    LineCounters&
    countersOf(const LineState& ls) const
    {
        return countersAt(ls.pos);
    }

    /** The side counters of the line at pool position `pos`. */
    LineCounters&
    countersAt(std::uint32_t pos) const
    {
        return counters_[pos >> kPoolChunkShift][pos & (kPoolChunkLines - 1)];
    }

    /** Inject WD for one applied RESET of the plan's line at `pos`;
     *  `wl_rate` is the effective word-line rate of this round. */
    void injectDisturbance(unsigned pos, double wl_rate, WritePlan& plan,
                           RoundOutcome& outcome);

    /** Charge differential bit writes for the ECP table's current
     *  entries against the slot image, and store the new image. */
    void chargeEcpImage(ColdLine& cold);

    DeviceConfig config_;
    AddressMap map_;
    DinEncoder din_;
    FnwEncoder fnw_;
    Rng rng_;
    DeviceStats stats_;
    double hardErrorMean_;
    FaultInjector* inject_ = nullptr;
    WdLedger* ledger_ = nullptr;
    HostProfiler* prof_ = nullptr;

    /** Peak LineCounters::cellWrites across lines (wear-skew gauge). */
    std::uint32_t maxLineCellWrites_ = 0;

    /** Injected stuck-cell scratch for materialise() (reused per line). */
    std::vector<unsigned> injectScratch_;

    // --- Sparse line store. LineStates live in fixed-size chunks that
    // never move, so a LineState* (a plan handle) stays valid for the
    // device's lifetime. One open-addressing index (common/line_index.hh)
    // maps DIMM-wide line indices to pool positions. Cold records live
    // in a second chunked pool of their own; side counters in chunks
    // parallel to the line pool (DESIGN §7.1).
    static constexpr unsigned kPoolChunkShift = 8;
    static constexpr std::uint32_t kPoolChunkLines = 1u << kPoolChunkShift;

    LineIndex index_; //!< line index -> pool position
    std::vector<std::unique_ptr<LineState[]>> pool_;
    std::vector<std::unique_ptr<ColdLine[]>> cold_;
    std::uint32_t coldCount_ = 0;
    /** Per-line counters, chunk for chunk with pool_; empty unless
     *  config_.lineCounters. */
    std::vector<std::unique_ptr<LineCounters[]>> counters_;
};

} // namespace sdpcm

#endif // SDPCM_PCM_DEVICE_HH
