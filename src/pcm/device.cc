#include "pcm/device.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "obs/ledger.hh"
#include "verify/faultinject.hh"

namespace sdpcm {

namespace {

/** Valid-flagged packed image of one ECP entry (for the wear model). */
std::uint16_t
packEcpEntry(const EcpEntry& entry)
{
    return static_cast<std::uint16_t>(0x8000u |
                                      (entry.cell << 1) |
                                      (entry.value ? 1u : 0u));
}

} // namespace

PcmDevice::PcmDevice(const DeviceConfig& config)
    : config_(config),
      map_(config.geometry),
      din_(config.din),
      rng_(config.seed)
{
    SDPCM_ASSERT(config_.aging.ageFraction >= 0.0 &&
                 config_.aging.ageFraction <= 1.0,
                 "age fraction must be in [0,1]");
    SDPCM_ASSERT(!(config_.dinEnabled && config_.fnwEnabled),
                 "DIN and FNW encoding are mutually exclusive");
    hardErrorMean_ = config_.aging.meanHardPerLineAtEol *
        std::pow(config_.aging.ageFraction, config_.aging.exponent);
    const std::uint64_t dimm_lines =
        static_cast<std::uint64_t>(config_.geometry.banks()) *
        config_.geometry.rowsPerBank * config_.geometry.linesPerRow();
    SDPCM_ASSERT(dimm_lines <= LineIndex::kNone,
                 "DIMM geometry exceeds 32-bit line indices: ", dimm_lines,
                 " lines");
}

std::uint64_t
PcmDevice::lineKey(const LineAddr& addr) const
{
    return addr.row * config_.geometry.linesPerRow() + addr.line;
}

std::uint64_t
PcmDevice::contentKey(const LineAddr& addr) const
{
    return mix64(config_.seed ^
                 (static_cast<std::uint64_t>(addr.bank) << 58) ^
                 lineKey(addr));
}

std::uint32_t
PcmDevice::checkedIndex(const LineAddr& addr) const
{
    // Checked against the geometry lineIndex() reads, so the compiler
    // computes linesPerRow (a division) once.
    const DimmGeometry& geom = map_.geometry();
    SDPCM_ASSERT(addr.bank < geom.banks(), "bank out of range");
    SDPCM_ASSERT(addr.row < geom.rowsPerBank, "row out of range");
    SDPCM_ASSERT(addr.line < geom.linesPerRow(), "line out of range");
    return map_.lineIndex(addr);
}

PcmDevice::LineState*
PcmDevice::lookup(const LineAddr& addr)
{
    if (!lazyLines())
        return &state(addr);
    const std::uint32_t pos = index_.find(checkedIndex(addr));
    return pos == LineIndex::kNone ? nullptr : &poolAt(pos);
}

PcmDevice::LineState&
PcmDevice::state(const LineAddr& addr)
{
    return poolAt(index_.findOrInsert(checkedIndex(addr), [&] {
        // New line: take the next pool position (a new chunk when
        // the last one is full; existing chunks never move).
        const std::uint32_t pos = index_.size();
        if ((pos & (kPoolChunkLines - 1)) == 0) {
            pool_.push_back(
                std::make_unique<LineState[]>(kPoolChunkLines));
            if (config_.lineCounters) {
                counters_.push_back(
                    std::make_unique<LineCounters[]>(kPoolChunkLines));
            }
        }
        LineState& ls = poolAt(pos);
        ls.pos = pos;
        materialise(ls, addr);
        return pos;
    }));
}

void
PcmDevice::materialise(LineState& ls, const LineAddr& addr)
{
    // Deterministic content and, when modelling an aged DIMM, a sampled
    // population of stuck-at cells.
    ls.physical = pristine(addr);

    if (hardErrorMean_ > 0.0) {
        // Knuth Poisson sampling; the mean is small (<= a few errors).
        const double limit = std::exp(-hardErrorMean_);
        unsigned count = 0;
        double product = rng_.uniform();
        while (product > limit) {
            ++count;
            product *= rng_.uniform();
        }
        for (unsigned i = 0; i < count; ++i) {
            const unsigned pos =
                static_cast<unsigned>(rng_.below(kLineBits));
            if (isHardCell(ls, pos))
                continue;
            addHardCell(ls, pos);
            stats_.hardErrors += 1;
        }
    }

    // Fault-injected stuck cells stack on top of the aging population.
    // They come from the injector's per-line stateless stream, so the
    // device RNG sequence (and hence every natural-fault draw) is
    // identical with and without injection.
    if (inject_) {
        injectScratch_.clear();
        inject_->stuckCellsFor(addr.bank, lineKey(addr), injectScratch_);
        for (const unsigned pos : injectScratch_) {
            if (isHardCell(ls, pos))
                continue;
            addHardCell(ls, pos);
            stats_.injectedStuckCells += 1;
        }
    }

    if (config_.lineCounters && ls.cold != kNoCold) {
        countersOf(ls).ecpHighWater = static_cast<std::uint32_t>(
            coldAt(ls.cold).ecp.entries().size());
    }
}

PcmDevice::ColdLine&
PcmDevice::coldFor(LineState& ls)
{
    if (ls.cold == kNoCold) {
        const std::uint32_t pos = coldCount_;
        if ((pos & (kPoolChunkLines - 1)) == 0)
            cold_.push_back(std::make_unique<ColdLine[]>(kPoolChunkLines));
        coldAt(pos).ecp = EcpLine(config_.ecpEntries);
        ls.cold = pos;
        coldCount_ += 1;
    }
    return coldAt(ls.cold);
}

void
PcmDevice::addHardCell(LineState& ls, unsigned pos)
{
    ColdLine& cold = coldFor(ls);
    const bool stuck = ls.physical.getBit(pos);
    cold.hardCells.emplace_back(static_cast<std::uint16_t>(pos), stuck);
    if (!cold.ecp.recordHard(pos, stuck))
        stats_.ecpSaturatedLines += 1;
}

bool
PcmDevice::isHardCell(const ColdLine& cold, unsigned pos)
{
    for (const auto& [cell, value] : cold.hardCells) {
        if (cell == pos)
            return true;
    }
    return false;
}

LineData
PcmDevice::readLine(const LineAddr& addr)
{
    PROF_SCOPE(prof_, DeviceRead);
    stats_.lineReads += 1;
    return peekLine(addr);
}

LineData
PcmDevice::peekLine(const LineAddr& addr)
{
    LineData data;
    std::uint64_t flags = 0;
    if (const LineState* ls = lookup(addr)) {
        data = ls->physical;
        flags = ls->dinFlags;
        if (const ColdLine* cold = coldOf(*ls))
            cold->ecp.apply(data);
    } else {
        data = pristine(addr);
    }
    if (config_.dinEnabled)
        return din_.decode(data, flags);
    if (config_.fnwEnabled)
        return fnw_.decode(data, flags);
    return data;
}

void
PcmDevice::resetPlan(WritePlan& plan, const LineAddr& addr)
{
    plan.addr = addr;
    plan.targetPhysical = LineData{};
    plan.intendedPhysical = LineData{};
    plan.targetFlags = 0;
    plan.masks = WriteMasks{};
    plan.writtenMask = LineData{};
    plan.rounds.clear(); // keeps capacity for the next write's rounds
    plan.nextRound = 0;
    plan.isCorrection = false;
    plan.wlHits.clear();
    plan.blHitsUpper = 0;
    plan.blHitsLower = 0;
    plan.line = nullptr;
    plan.left = nullptr;
    plan.right = nullptr;
    plan.upper = nullptr;
    plan.lower = nullptr;
}

void
PcmDevice::sealPlan(WritePlan& plan, const LineState& ls)
{
    plan.masks = diffWrite(ls.physical, plan.targetPhysical);
    for (unsigned w = 0; w < kLineWords; ++w) {
        plan.writtenMask.words[w] =
            plan.masks.resetMask.words[w] | plan.masks.setMask.words[w];
    }
    buildRounds(plan);
}

PcmDevice::WritePlan
PcmDevice::planWrite(const LineAddr& addr, const LineData& new_logical)
{
    WritePlan plan;
    planWriteInto(plan, addr, new_logical);
    return plan;
}

void
PcmDevice::planWriteInto(WritePlan& plan, const LineAddr& addr,
                         const LineData& new_logical)
{
    LineState& ls = state(addr);
    resetPlan(plan, addr);
    plan.line = &ls;

    if (config_.dinEnabled) {
        const auto enc = din_.encode(new_logical, ls.physical);
        plan.intendedPhysical = enc.physical;
        plan.targetFlags = enc.flags;
    } else if (config_.fnwEnabled) {
        const auto enc = fnw_.encode(new_logical, ls.physical);
        plan.intendedPhysical = enc.physical;
        plan.targetFlags = enc.flags;
    } else {
        plan.intendedPhysical = new_logical;
        plan.targetFlags = 0;
    }

    // Stuck-at cells cannot be programmed; the intended value is kept in
    // the ECP entry instead (refreshed in finishWrite).
    plan.targetPhysical = plan.intendedPhysical;
    if (const ColdLine* cold = coldOf(ls)) {
        for (const auto& [cell, stuck] : cold->hardCells)
            plan.targetPhysical.setBit(cell, stuck);
    }

    sealPlan(plan, ls);
}

PcmDevice::WritePlan
PcmDevice::planCorrection(const LineAddr& addr,
                          const std::vector<unsigned>& cells)
{
    WritePlan plan;
    planCorrectionInto(plan, addr, cells);
    return plan;
}

void
PcmDevice::planCorrectionInto(WritePlan& plan, const LineAddr& addr,
                              const std::vector<unsigned>& cells)
{
    LineState& ls = state(addr);
    resetPlan(plan, addr);
    plan.line = &ls;
    plan.isCorrection = true;
    plan.targetFlags = ls.dinFlags;

    // Disturbed cells were amorphous '0' cells partially SET by heat; the
    // correction RESETs them back. Cells already correct are skipped.
    plan.targetPhysical = ls.physical;
    for (const unsigned pos : cells) {
        SDPCM_ASSERT(pos < kLineBits, "correction cell out of range");
        if (!isHardCell(ls, pos))
            plan.targetPhysical.setBit(pos, false);
    }
    plan.intendedPhysical = plan.targetPhysical;
    sealPlan(plan, ls);
    SDPCM_ASSERT(plan.masks.setCount() == 0,
                 "correction write must be RESET-only");
}

void
PcmDevice::buildRounds(WritePlan& plan)
{
    plan.rounds.clear();
    plan.nextRound = 0;
    const unsigned par = config_.timing.writeParallelism;
    SDPCM_ASSERT(par > 0, "zero write parallelism");

    if (config_.timing.windowed) {
        // Fixed per-position drivers: the line divides into contiguous
        // windows of `par` cells; each window with changed cells pays its
        // own RESET and/or SET pulse.
        SDPCM_ASSERT(par % 64 == 0 && kLineBits % par == 0,
                     "windowed mode needs word-aligned windows");
        const unsigned words_per_window = par / 64;
        for (unsigned base = 0; base < kLineWords;
             base += words_per_window) {
            ProgramRound reset_round;
            ProgramRound set_round;
            bool any_reset = false;
            bool any_set = false;
            for (unsigned w = base; w < base + words_per_window; ++w) {
                reset_round.mask.words[w] = plan.masks.resetMask.words[w];
                set_round.mask.words[w] = plan.masks.setMask.words[w];
                any_reset |= reset_round.mask.words[w] != 0;
                any_set |= set_round.mask.words[w] != 0;
            }
            if (any_reset) {
                reset_round.isReset = true;
                plan.rounds.push_back(std::move(reset_round));
            }
            if (any_set) {
                set_round.isReset = false;
                plan.rounds.push_back(std::move(set_round));
            }
        }
        return;
    }

    // Pooled drivers: any `par` cells may program together.
    auto emit_chunks = [&](const LineData& mask, bool is_reset) {
        ProgramRound round;
        round.isReset = is_reset;
        unsigned count = 0;
        forEachSetBit(mask, [&](unsigned pos) {
            round.mask.setBit(pos, true);
            if (++count == par) {
                plan.rounds.push_back(round);
                round.mask = LineData{};
                count = 0;
            }
        });
        if (count)
            plan.rounds.push_back(round);
    };
    emit_chunks(plan.masks.resetMask, true);
    emit_chunks(plan.masks.setMask, false);
}

void
PcmDevice::injectDisturbance(unsigned pos, double wl_rate, WritePlan& plan,
                             RoundOutcome& outcome)
{
    const LineAddr& addr = plan.addr;
    const unsigned word = pos >> 6;
    const unsigned offset = pos & 63;

    // --- Word-line neighbours (same device row, adjacent cells on the
    // shared word-line; oxide isolation between bit-lines). DIN encoding
    // suppresses most vulnerable patterns along this direction.
    if (wl_rate > 0.0) {
        auto probe_wl = [&](LineState*& handle, unsigned n_line,
                            unsigned n_pos) {
            const LineAddr n_addr{addr.bank, addr.row, n_line};
            if (!vulnerable(probe(handle, n_addr), n_addr, n_pos))
                return;
            // The natural draw always runs first so the device RNG stream
            // is injection-independent; the injector may then force the
            // flip through the same vulnerability filter.
            if (!rng_.chance(wl_rate) &&
                !(inject_ && inject_->forceWdFlip())) {
                return;
            }
            LineState& ns = resolve(handle, n_addr);
            ns.physical.setBit(n_pos, true);
            outcome.wlErrors += 1;
            stats_.wlDisturbances += 1;
            if (config_.lineCounters)
                countersOf(ns).wdFlips += 1;
            if (ledger_) {
                ledger_->recordFlip(addr, plan.isCorrection, n_addr,
                                    n_pos, /*word_line=*/true);
            }
            plan.wlHits.push_back((n_line << 9) | n_pos);
        };

        // Left neighbour (a cell this write programs is not idle).
        if (offset > 0) {
            if (!plan.writtenMask.getBit(pos - 1))
                probe_wl(plan.line, addr.line, pos - 1);
        } else if (addr.line > 0) {
            probe_wl(plan.left, addr.line - 1, (word << 6) | 63);
        }
        // Right neighbour.
        if (offset < 63) {
            if (!plan.writtenMask.getBit(pos + 1))
                probe_wl(plan.line, addr.line, pos + 1);
        } else if (addr.line + 1 < config_.geometry.linesPerRow()) {
            probe_wl(plan.right, addr.line + 1, word << 6);
        }
    }

    // --- Bit-line neighbours (adjacent device rows on the shared GST
    // rail; always idle since a write touches a single row).
    if (config_.rates.bitLine > 0.0) {
        auto probe_bl = [&](LineState*& handle, std::uint64_t n_row,
                            bool upper) {
            // Draw first: materialising the neighbour is only needed when
            // the thermal draw succeeds (the flip applies iff vulnerable).
            // As on the word line, the natural draw precedes any forced
            // flip so the device RNG stream is injection-independent.
            if (!rng_.chance(config_.rates.bitLine) &&
                !(inject_ && inject_->forceWdFlip())) {
                return;
            }
            const LineAddr n_addr{addr.bank, n_row, addr.line};
            if (!vulnerable(probe(handle, n_addr), n_addr, pos))
                return;
            LineState& ns = resolve(handle, n_addr);
            ns.physical.setBit(pos, true);
            outcome.blErrors += 1;
            stats_.blDisturbances += 1;
            if (config_.lineCounters)
                countersOf(ns).wdFlips += 1;
            if (ledger_) {
                ledger_->recordFlip(addr, plan.isCorrection, n_addr,
                                    pos, /*word_line=*/false);
            }
            if (upper)
                plan.blHitsUpper += 1;
            else
                plan.blHitsLower += 1;
        };

        if (addr.row > 0)
            probe_bl(plan.upper, addr.row - 1, true);
        if (addr.row + 1 < config_.geometry.rowsPerBank)
            probe_bl(plan.lower, addr.row + 1, false);
    }
}

PcmDevice::RoundPeek
PcmDevice::peekNextRound(const WritePlan& plan) const
{
    RoundPeek peek;
    if (!plan.roundsRemaining())
        return peek;
    peek.valid = true;
    peek.isReset = plan.rounds[plan.nextRound].isReset;
    peek.latency = peek.isReset ? config_.timing.resetCycles
                                : config_.timing.setCycles;
    return peek;
}

bool
PcmDevice::applyNextRound(WritePlan& plan, RoundOutcome& outcome)
{
    outcome = RoundOutcome();
    if (!plan.roundsRemaining())
        return false;

    LineState& ls = *plan.line;
    const ProgramRound& round = plan.rounds[plan.nextRound];
    plan.nextRound += 1;
    const bool is_reset = round.isReset;

    outcome.isReset = is_reset;
    outcome.latency = is_reset ? config_.timing.resetCycles
                               : config_.timing.setCycles;

    unsigned programmed = 0;
    {
        PROF_SCOPE(prof_, DevicePulse);
        for (unsigned w = 0; w < kLineWords; ++w) {
            const std::uint64_t m = round.mask.words[w];
            if (is_reset)
                ls.physical.words[w] &= ~m;
            else
                ls.physical.words[w] |= m;
            programmed += static_cast<unsigned>(popcount64(m));
        }
    }

    stats_.dataCellWrites += programmed;
    if (plan.isCorrection)
        stats_.correctionCellWrites += programmed;
    else
        stats_.normalCellWrites += programmed;
    if (config_.lineCounters) {
        LineCounters& counters = countersOf(ls);
        counters.cellWrites += programmed;
        if (counters.cellWrites > maxLineCellWrites_)
            maxLineCellWrites_ = counters.cellWrites;
    }

    // Only RESET pulses disseminate enough heat to disturb (SET current is
    // about half, i.e. ~4x lower temperature rise; Section 2.2.1). The
    // scan walks the round mask in ascending cell order, after every
    // pulse of the round has landed.
    {
        PROF_SCOPE(prof_, DeviceWdScan);
        if (is_reset) {
            const double wl_rate = config_.rates.wordLine *
                (config_.dinEnabled ? config_.din.modeledResidualFactor
                                    : 1.0);
            forEachSetBit(round.mask, [&](unsigned pos) {
                injectDisturbance(pos, wl_rate, plan, outcome);
            });
        }
    }
    return true;
}

unsigned
PcmDevice::repairWlHits(WritePlan& plan)
{
    // DIN check-and-rewrite: the disturbances a write causes within its
    // own device row are repaired as part of the write operation (the
    // disturbed cells were idle '0' cells, so the repair is a RESET).
    unsigned fixed = 0;
    for (const unsigned key : plan.wlHits) {
        const unsigned line = key >> 9;
        const unsigned pos = key & 511;
        // A hit was recorded through the handle its probe resolved.
        LineState* handle = line == plan.addr.line ? plan.line
            : line < plan.addr.line                ? plan.left
                                                   : plan.right;
        SDPCM_ASSERT(handle, "word-line hit on an unresolved line");
        LineState& fs = *handle;
        if (fs.physical.getBit(pos)) {
            fs.physical.setBit(pos, false);
            fixed += 1;
            stats_.dataCellWrites += 1;
            stats_.correctionCellWrites += 1;
            if (config_.lineCounters) {
                LineCounters& counters = countersOf(fs);
                counters.wdCorrected += 1;
                counters.cellWrites += 1;
                if (counters.cellWrites > maxLineCellWrites_)
                    maxLineCellWrites_ = counters.cellWrites;
            }
            if (ledger_) {
                ledger_->flipRepaired(
                    LineAddr{plan.addr.bank, plan.addr.row, line}, pos);
            }
        }
    }
    return fixed;
}

PcmDevice::FinishOutcome
PcmDevice::finishWrite(WritePlan& plan)
{
    SDPCM_ASSERT(!plan.roundsRemaining(),
                 "finishWrite with rounds still pending");
    FinishOutcome out;
    out.wlErrorsFixed = repairWlHits(plan);

    LineState& ls = *plan.line;
    ColdLine* cold = coldOf(ls);

    if (!plan.isCorrection) {
        ls.dinFlags = plan.targetFlags;
        stats_.lineWrites += 1;
        if (config_.lineCounters)
            countersOf(ls).writes += 1;
        // Refresh stuck-cell intended values held in ECP.
        if (cold) {
            for (const auto& [cell, stuck] : cold->hardCells) {
                (void)stuck;
                cold->ecp.updateHardValue(
                    cell, plan.intendedPhysical.getBit(cell));
            }
        }
        // Figure 4 bookkeeping (normal data writes only).
        stats_.wlErrorsPerWrite.record(
            static_cast<double>(plan.wlHits.size()));
        stats_.blErrorsPerAdjacentLine.record(
            static_cast<double>(plan.blHitsUpper));
        stats_.blErrorsPerAdjacentLine.record(
            static_cast<double>(plan.blHitsLower));
        stats_.blErrorHistogram.record(plan.blHitsUpper);
        stats_.blErrorHistogram.record(plan.blHitsLower);
        // The write rewrote the full line content, so its remaining
        // pending flips (bit-line hits from earlier neighbour writes)
        // resolve as overwritten. After repairWlHits: this write's own
        // in-row hits resolve as repaired first.
        if (ledger_)
            ledger_->noteLineWritten(plan.addr);
    } else {
        stats_.correctionWrites += 1;
        // Every cell a correction RESETs was a disturbed (or re-disturbed)
        // victim cell on this line.
        if (config_.lineCounters) {
            countersOf(ls).wdCorrected += static_cast<std::uint32_t>(
                plan.masks.resetCount());
        }
        if (ledger_) {
            forEachSetBit(plan.masks.resetMask, [&](unsigned pos) {
                ledger_->flipCorrected(plan.addr, pos);
            });
        }
    }

    // Any write to the line leaves its data cells correct, so the parked
    // WD entries are released (LazyCorrection consolidation). A line
    // without a cold record has no entries and an all-zero slot image.
    if (cold) {
        const unsigned released = cold->ecp.clearWd();
        out.ecpWdReleased = released;
        stats_.ecpWdReleased += released;
        // Wear accounting for the (disturbance-free) ECP chip.
        chargeEcpImage(*cold);
    }
    return out;
}

std::vector<unsigned>
PcmDevice::verifyLine(const LineAddr& addr, const LineData& expected)
{
    std::vector<unsigned> errors;
    verifyLineInto(addr, expected, errors);
    return errors;
}

void
PcmDevice::verifyLineInto(const LineAddr& addr, const LineData& expected,
                          std::vector<unsigned>& out)
{
    out.clear();
    const LineData current = readLine(addr);
    const LineData delta = current.diff(expected);
    forEachSetBit(delta, [&](unsigned pos) { out.push_back(pos); });
}

bool
PcmDevice::recordWdInEcp(const LineAddr& addr,
                         const std::vector<unsigned>& cells)
{
    // Parking needs a table: with cells to park and ECP configured,
    // the line gets its cold record here (ECP-0 parks nothing).
    const bool parks = !cells.empty() && config_.ecpEntries > 0;
    LineState* ls = parks ? &state(addr) : lookup(addr);
    ColdLine* cold = !ls ? nullptr : parks ? &coldFor(*ls) : coldOf(*ls);
    bool all_fit = true;
    for (const unsigned pos : cells) {
        SDPCM_ASSERT(pos < kLineBits, "ECP cell out of range");
        if (cold && cold->ecp.recordWd(pos)) {
            stats_.ecpWdRecorded += 1;
            if (config_.lineCounters)
                countersOf(*ls).wdAbsorbed += 1;
            if (ledger_)
                ledger_->flipAbsorbed(addr, pos);
        } else {
            all_fit = false;
        }
    }
    if (!all_fit)
        stats_.ecpOverflows += 1;
    if (cold) {
        if (config_.lineCounters) {
            LineCounters& counters = countersOf(*ls);
            counters.ecpHighWater = std::max(
                counters.ecpHighWater,
                static_cast<std::uint32_t>(cold->ecp.entries().size()));
        }
        chargeEcpImage(*cold);
    }
    return all_fit;
}

unsigned
PcmDevice::ecpUsed(const LineAddr& addr)
{
    const ColdLine* cold = coldOf(addr);
    return cold ? static_cast<unsigned>(cold->ecp.entries().size()) : 0;
}

unsigned
PcmDevice::ecpFree(const LineAddr& addr)
{
    const ColdLine* cold = coldOf(addr);
    return cold ? cold->ecp.freeEntries() : config_.ecpEntries;
}

LineData
PcmDevice::uncorrectableMask(const LineAddr& addr)
{
    LineData mask;
    const ColdLine* cold = coldOf(addr);
    if (!cold)
        return mask;
    for (const auto& [cell, stuck] : cold->hardCells) {
        (void)stuck;
        bool covered = false;
        for (const auto& e : cold->ecp.entries()) {
            if (e.hard && e.cell == cell) {
                covered = true;
                break;
            }
        }
        if (!covered)
            mask.setBit(cell, true);
    }
    return mask;
}

std::vector<unsigned>
PcmDevice::ecpWdCells(const LineAddr& addr)
{
    std::vector<unsigned> cells;
    ecpWdCellsInto(addr, cells);
    return cells;
}

void
PcmDevice::ecpWdCellsInto(const LineAddr& addr, std::vector<unsigned>& out)
{
    out.clear();
    const ColdLine* cold = coldOf(addr);
    if (!cold)
        return;
    for (const auto& e : cold->ecp.entries()) {
        if (!e.hard)
            out.push_back(e.cell);
    }
}

std::size_t
PcmDevice::touchedLines() const
{
    return index_.size();
}

std::vector<LineCounterSample>
PcmDevice::lineCounterSamples() const
{
    std::vector<LineCounterSample> samples;
    if (!config_.lineCounters)
        return samples;
    samples.reserve(touchedLines());
    // Index order is (bank, row, line) order: sort the 8-byte slots,
    // then build the samples in that order. A slot's value is the
    // line's pool position, which also places its counters.
    for (const auto& slot : index_.sortedSlots())
        samples.push_back({map_.lineAt(slot.key), countersAt(slot.value)});
    return samples;
}

void
PcmDevice::chargeEcpImage(ColdLine& cold)
{
    const auto& entries = cold.ecp.entries();
    for (std::size_t slot = 0; slot < cold.ecp.capacity(); ++slot) {
        const std::uint16_t new_image = slot < entries.size()
            ? packEcpEntry(entries[slot]) : 0;
        const std::uint16_t old_image = slot < cold.ecpSlotImage.size()
            ? cold.ecpSlotImage[slot] : 0;
        if (old_image == new_image)
            continue;
        stats_.ecpBitsWritten += static_cast<unsigned>(
            popcount64(static_cast<std::uint64_t>(old_image ^ new_image)));
        if (cold.ecpSlotImage.empty())
            cold.ecpSlotImage.assign(cold.ecp.capacity(), 0);
        cold.ecpSlotImage[slot] = new_image;
    }
}

} // namespace sdpcm
