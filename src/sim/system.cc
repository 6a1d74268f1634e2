#include "sim/system.hh"

#include <algorithm>
#include <iostream>
#include <utility>

#include "obs/monitor.hh"
#include "workload/generators.hh"

namespace sdpcm {

namespace {

/**
 * Publish the system's signals into a telemetry registry. Counter names
 * are the exact run-report snapshot keys — RunMetrics::toSnapshot and
 * the telemetry cross-check both depend on that identity.
 */
MetricRegistry
buildRegistry(const MemoryController& ctrl, const PcmDevice& device,
              const WdLedger* ledger)
{
    MetricRegistry reg;
    const CtrlStats& cs = ctrl.stats();
    const auto ctr = [&reg](const char* name,
                            const std::uint64_t& field) {
        reg.addCounter(name, [&field] { return field; });
    };
    ctr("ctrl.readsServiced", cs.readsServiced);
    ctr("ctrl.readsForwarded", cs.readsForwarded);
    ctr("ctrl.writesAccepted", cs.writesAccepted);
    ctr("ctrl.writesCoalesced", cs.writesCoalesced);
    ctr("ctrl.writesCompleted", cs.writesCompleted);
    ctr("ctrl.writeDrains", cs.writeDrains);
    ctr("ctrl.preReadsIssued", cs.preReadsIssued);
    ctr("ctrl.verifyReads", cs.verifyReads);
    ctr("ctrl.ecpUpdates", cs.ecpUpdates);
    ctr("ctrl.correctionWrites", cs.correctionWrites);
    ctr("ctrl.cascadeVerifies", cs.cascadeVerifies);
    ctr("ctrl.writeCancellations", cs.writeCancellations);
    ctr("ctrl.cancelStallCycles", cs.cancelStallCycles);
    ctr("ctrl.cycles.read", cs.cyclesRead);
    ctr("ctrl.cycles.preRead", cs.cyclesPreRead);
    ctr("ctrl.cycles.write", cs.cyclesWrite);
    ctr("ctrl.cycles.verify", cs.cyclesVerify);
    ctr("ctrl.cycles.correction", cs.cyclesCorrection);
    ctr("ctrl.cycles.ecp", cs.cyclesEcp);

    const DeviceStats& ds = device.stats();
    ctr("device.lineReads", ds.lineReads);
    ctr("device.lineWrites", ds.lineWrites);
    ctr("device.wlDisturbances", ds.wlDisturbances);
    ctr("device.blDisturbances", ds.blDisturbances);
    ctr("device.ecpWdRecorded", ds.ecpWdRecorded);
    ctr("device.ecpOverflows", ds.ecpOverflows);
    ctr("device.hardErrors", ds.hardErrors);

    reg.addGauge("ctrl.readQueued", [&ctrl] {
        std::uint64_t n = 0;
        for (unsigned b = 0; b < ctrl.numBanks(); ++b)
            n += ctrl.readQueueDepth(b);
        return n;
    });
    reg.addGauge("ctrl.writeQueued", [&ctrl] {
        std::uint64_t n = 0;
        for (unsigned b = 0; b < ctrl.numBanks(); ++b)
            n += ctrl.writeQueueDepth(b);
        return n;
    });
    reg.addGauge("ctrl.maxBankWriteQueue", [&ctrl] {
        std::uint64_t peak = 0;
        for (unsigned b = 0; b < ctrl.numBanks(); ++b) {
            peak = std::max<std::uint64_t>(peak,
                                           ctrl.writeQueueDepth(b));
        }
        return peak;
    });
    reg.addGauge("ctrl.pendingCorrections",
                 [&ctrl] { return ctrl.pendingCorrections(); });
    reg.addGauge("ctrl.inFlightWrites",
                 [&ctrl] { return ctrl.inFlightWrites(); });

    if (ledger) {
        // Outcome counters are monotonic: a flip resolves exactly once.
        // Names are the wd.* snapshot keys (cross-check identity).
        reg.addCounter("wd.flips", [ledger] { return ledger->flips(); });
        reg.addCounter("wd.flipsWl",
                       [ledger] { return ledger->flipsWl(); });
        reg.addCounter("wd.flipsBl",
                       [ledger] { return ledger->flipsBl(); });
        const auto outcome = [&reg, ledger](const char* name,
                                            WdOutcome o) {
            reg.addCounter(name, [ledger, o] {
                return ledger->outcomeCount(o);
            });
        };
        outcome("wd.absorbed", WdOutcome::Absorbed);
        outcome("wd.repaired", WdOutcome::Repaired);
        outcome("wd.cancelRepaired", WdOutcome::Cancelled);
        outcome("wd.corrected", WdOutcome::Corrected);
        outcome("wd.overwritten", WdOutcome::Overwritten);
        // Outstanding flips drain as they resolve: a gauge, not a
        // counter (the cross-check demands monotonic counters).
        reg.addGauge("wd.outstanding",
                     [ledger] { return ledger->outstanding(); });
    }
    if (device.config().lineCounters) {
        // Wear-skew gauges so SLO monitors can alarm on uneven aging.
        reg.addGauge("wear.maxLineCellWrites", [&device] {
            return static_cast<std::uint64_t>(device.maxLineCellWrites());
        });
        // max/mean per-line programmed cells in permille (integer gauge
        // semantics): 1000 = perfectly level, higher = skewed.
        reg.addGauge("wear.skewPermille", [&device] {
            const std::uint64_t total = device.stats().dataCellWrites;
            if (total == 0)
                return std::uint64_t(0);
            const std::uint64_t peak = device.maxLineCellWrites();
            return peak * 1000 *
                   static_cast<std::uint64_t>(device.touchedLines()) /
                   total;
        });
    }

    reg.addLatency("ctrl.readLatency", &cs.readLatency);
    reg.addLatency("ctrl.writeServiceLatency", &cs.writeServiceLatency);
    return reg;
}

} // namespace

WorkloadSpec
workloadFromProfile(const std::string& profile_name)
{
    WorkloadSpec spec;
    spec.name = profile_name;
    if (profile_name == "qstress") {
        // Adversarial queue-stress workload (not in Table 3): built for
        // the integrity oracle, see QueueStressGenerator.
        spec.makeStream = [](unsigned core, std::uint64_t seed) {
            return std::make_unique<QueueStressGenerator>(
                seed ^ (0x5712e55ULL * (core + 1)));
        };
        return spec;
    }
    // Resolve the profile once here rather than in every makeStream call
    // (the matrix harness builds cores x runs streams); unknown names
    // fail fast at spec construction instead of mid-run.
    const WorkloadProfile profile = profileByName(profile_name);
    if (profile_name == "stream") {
        spec.makeStream = [profile](unsigned core, std::uint64_t seed) {
            return std::make_unique<StreamTraceGenerator>(
                profile.footprintBytes / 3, profile.apki(),
                seed ^ (0x517eadULL + core));
        };
        return spec;
    }
    spec.makeStream = [profile](unsigned core, std::uint64_t seed) {
        return std::make_unique<SyntheticTraceGenerator>(
            profile, seed ^ (0x9e3779b9ULL * (core + 1)));
    };
    return spec;
}

std::vector<WorkloadSpec>
standardWorkloads()
{
    std::vector<WorkloadSpec> specs;
    for (const auto& profile : table3Profiles())
        specs.push_back(workloadFromProfile(profile.name));
    return specs;
}

WdRates
System::ratesFor(const SchemeConfig& scheme, const ThermalConfig& thermal)
{
    const WdModel model(thermal);
    const CellLayout layout =
        scheme.superDense ? kLayoutSuperDense : kLayoutDin;
    WdRates rates;
    rates.wordLine = model.wordLineErrorRate(layout);
    rates.bitLine = model.bitLineErrorRate(layout);
    return rates;
}

System::System(const SystemConfig& config, const WorkloadSpec& workload)
    : config_(config),
      workload_(workload),
      wdModel_(config.thermal)
{
    DeviceConfig dc;
    dc.geometry = config_.geometry;
    dc.timing = config_.timing;
    dc.rates = ratesFor(config_.scheme, config_.thermal);
    dc.ecpEntries = config_.scheme.ecpEntries;
    // DIN is the encoder of all paper-compared schemes; FNW replaces it
    // only in the explicit fnw ablation scheme.
    dc.dinEnabled = !config_.scheme.fnwEncoding;
    dc.fnwEnabled = config_.scheme.fnwEncoding;
    dc.din = config_.din;
    dc.aging = config_.aging;
    dc.seed = config_.seed;
    dc.lineCounters = config_.lineCounters;
    device_ = std::make_unique<PcmDevice>(dc);

    if (config_.faults.any()) {
        faultInjector_ = std::make_unique<FaultInjector>(config_.faults);
        device_->setFaultInjector(faultInjector_.get());
    }

    ctrl_ = std::make_unique<MemoryController>(events_, *device_,
                                               config_.scheme,
                                               config_.seed);
    allocator_ = std::make_unique<PageAllocatorSystem>(config_.geometry);

    if (!config_.tracePath.empty()) {
        traceSink_ = std::make_unique<ChromeTraceSink>(config_.tracePath);
        for (unsigned b = 0; b < ctrl_->numBanks(); ++b)
            traceSink_->threadName(b, "bank " + std::to_string(b));
        ctrl_->setTraceSink(traceSink_.get());
    }
    if (config_.verifyOracle) {
        oracle_ = std::make_unique<ShadowOracle>(events_, *device_);
        oracle_->setTraceSink(traceSink_.get());
        ctrl_->setOracle(oracle_.get());
    }
    if (config_.spans) {
        spanRecorder_ = std::make_unique<SpanRecorder>();
        ctrl_->setSpanRecorder(spanRecorder_.get());
    }
    // Before telemetry: the registry publishes wd.* counters off the
    // ledger when one is attached.
    if (config_.wdLedger) {
        ledger_ = std::make_unique<WdLedger>(events_, config_.geometry);
        device_->setLedger(ledger_.get());
        ctrl_->setLedger(ledger_.get());
    }
    if (config_.telemetry.enabled()) {
        telemetrySampler_ = std::make_unique<TelemetrySampler>(
            events_, buildRegistry(*ctrl_, *device_, ledger_.get()),
            config_.telemetry,
            config_.scheme.name, workload_.name, traceSink_.get());
        if (config_.telemetry.watchdogTicks > 0) {
            // The System builds the watchdog: it owns the notion of
            // "retired" (reads serviced + writes completed) and
            // "pending" (controller not quiescent).
            telemetrySampler_->setWatchdog(std::make_unique<Watchdog>(
                config_.telemetry.watchdogTicks,
                [c = ctrl_.get()] {
                    return c->stats().readsServiced +
                           c->stats().writesCompleted;
                },
                [c = ctrl_.get()] { return !c->quiescent(); }));
        }
    }

    // Last: every observer above is already wired, so one attach pass
    // covers all instrumented components. The profiler only reads the
    // host clock — it cannot perturb RNG streams or simulated state.
    if (config_.profile) {
        profiler_ = std::make_unique<HostProfiler>(
            &HostProfiler::steadyNs, config_.profileSample);
        events_.setProfiler(profiler_.get());
        device_->setProfiler(profiler_.get());
        ctrl_->setProfiler(profiler_.get());
        if (traceSink_)
            traceSink_->setProfiler(profiler_.get());
        if (telemetrySampler_)
            telemetrySampler_->setProfiler(profiler_.get());
    }

    for (unsigned c = 0; c < config_.cores; ++c) {
        mmus_.push_back(std::make_unique<Mmu>(
            *allocator_, config_.scheme.defaultTag,
            config_.geometry.rowBytes, config_.tlbEntries));
        streams_.push_back(workload_.makeStream(c, config_.seed));
        cores_.push_back(std::make_unique<TraceCore>(
            c, events_, *ctrl_, *mmus_[c], *streams_[c],
            config_.refsPerCore, config_.scheme.tlbMissCycles));
    }
}

void
System::run()
{
    if (telemetrySampler_)
        telemetrySampler_->start();
    for (auto& core : cores_)
        core->start();
    events_.run(config_.maxTicks);
    // Before the trace closes: the final partial frame may still emit
    // an epoch row's counter tracks and breach/stall instants into the
    // trace.
    if (telemetrySampler_)
        telemetrySampler_->finalize();
    // Final drain-state audit before the trace closes, so mismatch
    // instants still land in the trace file.
    if (oracle_) {
        oracle_->finalCheck();
        if (!oracle_->clean())
            oracle_->report(std::cerr);
    }
    if (traceSink_)
        traceSink_->close();

    // With the drain-on-full policy a never-filled queue legitimately
    // retains buffered writes at the end of the run; anything beyond one
    // queue's worth per bank indicates a stall.
    const std::uint64_t benign = static_cast<std::uint64_t>(
        config_.scheme.writeQueueEntries) * config_.geometry.banks();
    if (ctrl_->pendingWrites() > benign) {
        SDPCM_WARN("simulation ended with ", ctrl_->pendingWrites(),
                   " writes pending");
    }
    for (const auto& core : cores_) {
        if (!core->done())
            SDPCM_WARN("core did not finish its trace (tick limit?)");
    }
}

StatSnapshot
RunMetrics::toSnapshot() const
{
    StatSnapshot s;
    s.set("sim.finalTick", static_cast<double>(finalTick));
    s.set("sim.meanCpi", meanCpi);
    for (std::size_t c = 0; c < coreCpi.size(); ++c)
        s.set("core" + std::to_string(c) + ".cpi", coreCpi[c]);

    s.set("device.lineReads", static_cast<double>(device.lineReads));
    s.set("device.lineWrites", static_cast<double>(device.lineWrites));
    s.set("device.correctionWrites",
          static_cast<double>(device.correctionWrites));
    s.set("device.dataCellWrites",
          static_cast<double>(device.dataCellWrites));
    s.set("device.normalCellWrites",
          static_cast<double>(device.normalCellWrites));
    s.set("device.correctionCellWrites",
          static_cast<double>(device.correctionCellWrites));
    s.set("device.wlDisturbances",
          static_cast<double>(device.wlDisturbances));
    s.set("device.blDisturbances",
          static_cast<double>(device.blDisturbances));
    s.set("device.ecpWdRecorded",
          static_cast<double>(device.ecpWdRecorded));
    s.set("device.ecpOverflows",
          static_cast<double>(device.ecpOverflows));
    s.set("device.ecpBitsWritten",
          static_cast<double>(device.ecpBitsWritten));
    s.set("device.ecpWdReleased",
          static_cast<double>(device.ecpWdReleased));
    s.set("device.hardErrors", static_cast<double>(device.hardErrors));
    s.set("device.wlErrorsPerWrite.mean", device.wlErrorsPerWrite.mean());
    s.set("device.wlErrorsPerWrite.max", device.wlErrorsPerWrite.max());
    s.set("device.blErrorsPerAdjacentLine.mean",
          device.blErrorsPerAdjacentLine.mean());
    s.set("device.blErrorsPerAdjacentLine.max",
          device.blErrorsPerAdjacentLine.max());

    s.set("ctrl.readsServiced", static_cast<double>(ctrl.readsServiced));
    s.set("ctrl.readsForwarded",
          static_cast<double>(ctrl.readsForwarded));
    s.set("ctrl.readsForwardedAtService",
          static_cast<double>(ctrl.readsForwardedAtService));
    s.set("ctrl.writesAccepted",
          static_cast<double>(ctrl.writesAccepted));
    s.set("ctrl.writesCoalesced",
          static_cast<double>(ctrl.writesCoalesced));
    s.set("ctrl.writesCompleted",
          static_cast<double>(ctrl.writesCompleted));
    s.set("ctrl.writeDrains", static_cast<double>(ctrl.writeDrains));
    s.set("ctrl.preReadsIssued",
          static_cast<double>(ctrl.preReadsIssued));
    s.set("ctrl.preReadsForwarded",
          static_cast<double>(ctrl.preReadsForwarded));
    s.set("ctrl.preReadsUseful",
          static_cast<double>(ctrl.preReadsUseful));
    s.set("ctrl.preReadsRefreshed",
          static_cast<double>(ctrl.preReadsRefreshed));
    s.set("ctrl.verifyReads", static_cast<double>(ctrl.verifyReads));
    s.set("ctrl.adjacentsSkippedNm",
          static_cast<double>(ctrl.adjacentsSkippedNm));
    s.set("ctrl.ecpUpdates", static_cast<double>(ctrl.ecpUpdates));
    s.set("ctrl.correctionWrites",
          static_cast<double>(ctrl.correctionWrites));
    s.set("ctrl.cascadeVerifies",
          static_cast<double>(ctrl.cascadeVerifies));
    s.set("ctrl.cascadeDropped",
          static_cast<double>(ctrl.cascadeDropped));
    s.set("ctrl.cascadeDepth.max", ctrl.cascadeDepth.max());
    s.set("ctrl.writeCancellations",
          static_cast<double>(ctrl.writeCancellations));
    s.set("ctrl.cancelStallCycles",
          static_cast<double>(ctrl.cancelStallCycles));
    s.set("ctrl.readLatency.mean", ctrl.readLatency.mean());
    s.set("ctrl.readLatency.max", ctrl.readLatency.max());
    s.set("read_latency_p50", ctrl.readLatency.percentile(0.50));
    s.set("read_latency_p95", ctrl.readLatency.percentile(0.95));
    s.set("read_latency_p99", ctrl.readLatency.percentile(0.99));
    s.set("ctrl.writeServiceLatency.mean",
          ctrl.writeServiceLatency.mean());
    s.set("write_service_latency_p50",
          ctrl.writeServiceLatency.percentile(0.50));
    s.set("write_service_latency_p95",
          ctrl.writeServiceLatency.percentile(0.95));
    s.set("write_service_latency_p99",
          ctrl.writeServiceLatency.percentile(0.99));
    s.set("ctrl.cycles.read", static_cast<double>(ctrl.cyclesRead));
    s.set("ctrl.cycles.preRead",
          static_cast<double>(ctrl.cyclesPreRead));
    s.set("ctrl.cycles.write", static_cast<double>(ctrl.cyclesWrite));
    s.set("ctrl.cycles.verify", static_cast<double>(ctrl.cyclesVerify));
    s.set("ctrl.cycles.correction",
          static_cast<double>(ctrl.cyclesCorrection));
    s.set("ctrl.cycles.ecp", static_cast<double>(ctrl.cyclesEcp));
    s.set("device.injectedStuckCells",
          static_cast<double>(device.injectedStuckCells));
    s.set("derived.correctionsPerWrite", correctionsPerWrite());

    if (oracle.enabled) {
        s.set("oracle.mismatches",
              static_cast<double>(oracle.mismatches));
        s.set("oracle.readsChecked",
              static_cast<double>(oracle.readsChecked));
        s.set("oracle.forwardsChecked",
              static_cast<double>(oracle.forwardsChecked));
        s.set("oracle.preReadsChecked",
              static_cast<double>(oracle.preReadsChecked));
        s.set("oracle.buffersChecked",
              static_cast<double>(oracle.buffersChecked));
        s.set("oracle.commitsChecked",
              static_cast<double>(oracle.commitsChecked));
        s.set("oracle.finalLinesChecked",
              static_cast<double>(oracle.finalLinesChecked));
        s.set("oracle.skippedDirty",
              static_cast<double>(oracle.skippedDirty));
        s.set("oracle.skippedTainted",
              static_cast<double>(oracle.skippedTainted));
        s.set("oracle.finalSkippedPending",
              static_cast<double>(oracle.finalSkippedPending));
        s.set("oracle.finalSkippedDirty",
              static_cast<double>(oracle.finalSkippedDirty));
        s.set("oracle.maskedUncorrectable",
              static_cast<double>(oracle.maskedUncorrectable));
    }

    addSpanMetrics(s, spans);
    addWdLedgerMetrics(s, wd);
    addProfMetrics(s, prof);

    if (!lines.empty()) {
        // Wear distribution over the touched lines: inequality metrics
        // plus a lifetime projection (measured per-line write rate
        // against the per-cell endurance budget). Deterministic and
        // exact: the integer counts are ranked by counting passes (an
        // LSD radix sort, 16 bits a pass, so one pass while every line
        // is below 65536 programmed cells) and the Gini's rank-weighted
        // sum is accumulated in uint64. The result has the bits of the
        // same formula summed in doubles over sorted doubles whenever
        // those double sums are exact, i.e. below 2^53.
        std::vector<std::uint32_t> per_line;
        per_line.reserve(lines.size());
        std::uint64_t sum = 0;
        std::uint32_t top = 0;
        for (const LineCounterSample& l : lines) {
            const std::uint32_t v = l.counters.cellWrites;
            per_line.push_back(v);
            sum += v;
            top = std::max(top, v);
        }
        constexpr unsigned kDigitBits = 16;
        constexpr std::uint32_t kDigitMask = (1u << kDigitBits) - 1;
        std::vector<std::uint32_t> ranked(per_line.size());
        std::vector<std::size_t> start(kDigitMask + 1);
        for (unsigned shift = 0; shift < 32 && (top >> shift) != 0;
             shift += kDigitBits) {
            std::fill(start.begin(), start.end(), 0);
            for (const std::uint32_t v : per_line)
                start[(v >> shift) & kDigitMask] += 1;
            std::size_t at = 0;
            for (std::size_t& count : start)
                at += std::exchange(count, at);
            for (const std::uint32_t v : per_line)
                ranked[start[(v >> shift) & kDigitMask]++] = v;
            per_line.swap(ranked);
        }
        const double n = static_cast<double>(per_line.size());
        const double total = static_cast<double>(sum);
        const double peak = static_cast<double>(top);
        const double mean = total / n;
        double gini = 0.0;
        if (sum > 0) {
            std::uint64_t weighted = 0;
            for (std::size_t i = 0; i < per_line.size(); ++i)
                weighted += (i + 1) * std::uint64_t{per_line[i]};
            gini = 2.0 * static_cast<double>(weighted) / (n * total) -
                   (n + 1.0) / n;
        }
        s.set("wear.lines", n);
        s.set("wear.totalCellWrites", total);
        s.set("wear.maxLineCellWrites", peak);
        s.set("wear.meanLineCellWrites", mean);
        s.set("wear.maxOverMean", mean > 0.0 ? peak / mean : 0.0);
        s.set("wear.gini", gini);
        s.set("wear.enduranceCellWrites", enduranceCellWrites);
        // Ticks until the hottest line exhausts its budget at the rate
        // this run measured (0 when nothing was programmed).
        s.set("wear.projectedLifetimeTicks",
              peak > 0.0 ? enduranceCellWrites *
                               static_cast<double>(finalTick) / peak
                         : 0.0);
    }

    if (telemetry.enabled) {
        s.set("telemetry.intervalTicks",
              static_cast<double>(telemetry.intervalTicks));
        s.set("telemetry.frames", static_cast<double>(telemetry.frames));
        s.set("mon.breaches", static_cast<double>(telemetry.breaches));
        s.set("mon.watchdogStalls",
              static_cast<double>(telemetry.watchdogStalls));
        for (const auto& [rule, n] : telemetry.breachesByRule) {
            s.set("mon." + rule + ".breaches", static_cast<double>(n));
        }
        for (const auto& [rule, worst] : telemetry.worstByRule)
            s.set("mon." + rule + ".worst", worst);
        for (const auto& [rule, n] : telemetry.evaluationsByRule) {
            s.set("mon." + rule + ".evaluations",
                  static_cast<double>(n));
        }
    }

    if (epochs.enabled()) {
        s.set("epoch.ticks", static_cast<double>(epochs.epochTicks));
        s.set("epoch.samples",
              static_cast<double>(epochs.samples.size()));
        s.set("epoch.peakReadQueued",
              static_cast<double>(epochs.peakReadQueued()));
        s.set("epoch.peakWriteQueued",
              static_cast<double>(epochs.peakWriteQueued()));
        s.set("epoch.peakPendingCorrections",
              static_cast<double>(epochs.peakPendingCorrections()));
    }
    return s;
}

RunMetrics
System::metrics() const
{
    RunMetrics m;
    // Manual enter/exit rather than PROF_SCOPE: the frame must close
    // before summarize() below (which requires no open scopes), and the
    // body has no early returns to leak past the exit(). Force-timed:
    // a once-per-run scope would otherwise be dropped or wildly scaled
    // by the sampling period.
    if (profiler_)
        profiler_->enter(ProfPhase::ReportWrite, /*force_timed=*/true);
    m.workload = workload_.name;
    m.scheme = config_.scheme.name;
    double sum = 0.0;
    for (const auto& core : cores_) {
        m.coreCpi.push_back(core->cpi());
        sum += core->cpi();
    }
    m.meanCpi = cores_.empty() ? 0.0 : sum / cores_.size();
    m.finalTick = events_.now();
    m.device = device_->stats();
    m.ctrl = ctrl_->stats();
    if (config_.lineCounters)
        m.lines = device_->lineCounterSamples();
    if (oracle_)
        m.oracle = oracle_->summary();
    m.enduranceCellWrites = config_.enduranceCellWrites;
    if (ledger_) {
        m.wd = ledger_->summarize();
        // The ledger telescopes to the device's own disturbance
        // counters by construction: every flip site and every absorb
        // site emits both. Bit-exact, not approximate.
        SDPCM_ASSERT(m.wd.flipsWl == m.device.wlDisturbances,
                     "ledger WL flips (", m.wd.flipsWl,
                     ") diverged from device wlDisturbances (",
                     m.device.wlDisturbances, ")");
        SDPCM_ASSERT(m.wd.flipsBl == m.device.blDisturbances,
                     "ledger BL flips (", m.wd.flipsBl,
                     ") diverged from device blDisturbances (",
                     m.device.blDisturbances, ")");
        const std::uint64_t absorbs =
            m.wd.outcomes[static_cast<unsigned>(WdOutcome::Absorbed)] +
            m.wd.lateFixes[static_cast<unsigned>(WdOutcome::Absorbed)];
        SDPCM_ASSERT(absorbs == m.device.ecpWdRecorded,
                     "ledger absorb events (", absorbs,
                     ") diverged from device ecpWdRecorded (",
                     m.device.ecpWdRecorded, ")");
    }
    if (spanRecorder_) {
        m.spans = spanRecorder_->summarize();
        // Spans also count every cancelled attempt; the two counters
        // measure the same thing through independent machinery.
        SDPCM_ASSERT(m.spans.cancelStallCycles ==
                         m.ctrl.cancelStallCycles,
                     "span CancelStall total diverged from the "
                     "controller counter");
    }
    if (telemetrySampler_) {
        m.telemetry = telemetrySampler_->summary();
        m.epochs = telemetrySampler_->epochs();
        // Hard cross-check: every telemetry counter total (the wrap-sum
        // of frame deltas) must bit-match the run report under the same
        // name — frames and report are two paths to one truth.
        const StatSnapshot snap = m.toSnapshot();
        for (const auto& [name, total] : m.telemetry.counterTotals) {
            SDPCM_ASSERT(snap.has(name),
                         "telemetry counter '", name,
                         "' missing from the run report");
            SDPCM_ASSERT(snap.get(name) == static_cast<double>(total),
                         "telemetry total for '", name, "' (", total,
                         ") diverged from the run report (",
                         snap.get(name), ")");
        }
    }
    if (profiler_) {
        profiler_->exit();
        m.prof = profiler_->summarize();
    }
    return m;
}

} // namespace sdpcm
