#include "obs/telemetry.hh"

#include <algorithm>
#include <stdexcept>

#include "common/args.hh"
#include "common/logging.hh"
#include "obs/json.hh"
#include "obs/monitor.hh"

namespace sdpcm {

TelemetryConfig
telemetryFromArgs(const ArgParser& args)
{
    TelemetryConfig cfg;
    cfg.path = args.getPath("telemetry", "");
    cfg.promPath = args.getPath("telemetry-prom", "");
    cfg.monitorRules = args.getString("monitor", "");
    cfg.watchdogTicks =
        static_cast<Tick>(args.getInt("watchdog", 0));
    cfg.windowFrames =
        static_cast<unsigned>(args.getInt("telemetry-window", 8));
    cfg.intervalTicks =
        static_cast<Tick>(args.getInt("telemetry-interval", 0));
    // The epoch series is a view of the frames, so its outputs need
    // sampling too; the frontend reads the paths and writes the files.
    const bool wanted = !cfg.path.empty() || !cfg.promPath.empty() ||
                        !cfg.monitorRules.empty() ||
                        cfg.watchdogTicks > 0 || args.has("epoch-csv") ||
                        args.has("epoch-json");
    if (cfg.intervalTicks == 0 && wanted) {
        // Any telemetry output without an explicit cadence turns
        // sampling on at a default frame interval (25us at 4GHz).
        cfg.intervalTicks = 100000;
    }
    if (!cfg.monitorRules.empty()) {
        // Fail fast on a malformed rule, before any simulation runs.
        try {
            MonitorRule::parseList(cfg.monitorRules);
        } catch (const std::invalid_argument& e) {
            SDPCM_FATAL(e.what());
        }
    }
    return cfg;
}

namespace {

/** Prometheus metric name: dots become underscores, `sdpcm_` prefix. */
std::string
promName(const std::string& name)
{
    std::string out = "sdpcm_";
    for (const char c : name)
        out += (c == '.') ? '_' : c;
    return out;
}

/** Escape a Prometheus label value (backslash, quote, newline). */
std::string
promLabelValue(const std::string& v)
{
    std::string out;
    for (const char c : v) {
        if (c == '\\')
            out += "\\\\";
        else if (c == '"')
            out += "\\\"";
        else if (c == '\n')
            out += "\\n";
        else
            out += c;
    }
    return out;
}

/** One epoch-series column and the frame signal it views. */
struct EpochColumn
{
    const char* metric;
    std::uint64_t EpochSample::*field;
};

const EpochColumn kEpochCounters[] = {
    {"ctrl.readsServiced", &EpochSample::readsServiced},
    {"ctrl.readsForwarded", &EpochSample::readsForwarded},
    {"ctrl.writesAccepted", &EpochSample::writesAccepted},
    {"ctrl.writesCompleted", &EpochSample::writesCompleted},
    {"ctrl.writeDrains", &EpochSample::writeDrains},
    {"ctrl.ecpUpdates", &EpochSample::ecpUpdates},
    {"ctrl.correctionWrites", &EpochSample::correctionWrites},
    {"ctrl.writeCancellations", &EpochSample::writeCancellations},
    {"ctrl.cycles.read", &EpochSample::cyclesRead},
    {"ctrl.cycles.preRead", &EpochSample::cyclesPreRead},
    {"ctrl.cycles.write", &EpochSample::cyclesWrite},
    {"ctrl.cycles.verify", &EpochSample::cyclesVerify},
    {"ctrl.cycles.correction", &EpochSample::cyclesCorrection},
    {"ctrl.cycles.ecp", &EpochSample::cyclesEcp},
};

const EpochColumn kEpochGauges[] = {
    {"ctrl.readQueued", &EpochSample::readQueued},
    {"ctrl.writeQueued", &EpochSample::writeQueued},
    {"ctrl.maxBankWriteQueue", &EpochSample::maxBankWriteQueue},
    {"ctrl.pendingCorrections", &EpochSample::pendingCorrections},
};

} // namespace

void
MetricRegistry::addCounter(const std::string& name, Poll poll)
{
    for (const Counter& c : counters_)
        SDPCM_ASSERT(c.name != name, "duplicate counter: ", name);
    counters_.push_back(Counter{name, std::move(poll)});
}

void
MetricRegistry::addGauge(const std::string& name, Poll poll)
{
    for (const Gauge& g : gauges_)
        SDPCM_ASSERT(g.name != name, "duplicate gauge: ", name);
    gauges_.push_back(Gauge{name, std::move(poll)});
}

void
MetricRegistry::addLatency(const std::string& name,
                           const LatencyStat* stat)
{
    SDPCM_ASSERT(stat != nullptr, "null latency stat: ", name);
    for (const Latency& l : latencies_)
        SDPCM_ASSERT(l.name != name, "duplicate latency: ", name);
    latencies_.push_back(Latency{name, stat});
}

bool
MetricRegistry::hasGauge(const std::string& name) const
{
    for (const Gauge& g : gauges_) {
        if (g.name == name)
            return true;
    }
    return false;
}

bool
MetricRegistry::hasLatency(const std::string& name) const
{
    for (const Latency& l : latencies_) {
        if (l.name == name)
            return true;
    }
    return false;
}

TelemetrySampler::TelemetrySampler(EventQueue& events,
                                   MetricRegistry registry,
                                   const TelemetryConfig& cfg,
                                   const std::string& scheme,
                                   const std::string& workload,
                                   TraceSink* sink)
    : events_(events),
      registry_(std::move(registry)),
      cfg_(cfg),
      scheme_(scheme),
      workload_(workload),
      trace_(sink)
{
    SDPCM_ASSERT(cfg_.intervalTicks > 0,
                 "telemetry interval must be positive");
    SDPCM_ASSERT(cfg_.windowFrames > 0,
                 "telemetry window must be at least one frame");
    summary_.enabled = true;
    summary_.intervalTicks = cfg_.intervalTicks;

    if (!cfg_.path.empty()) {
        stream_.open(cfg_.path);
        if (!stream_)
            SDPCM_FATAL("cannot open telemetry file: ", cfg_.path);
    }
    if (!cfg_.monitorRules.empty()) {
        monitors_ = std::make_unique<MonitorSet>(
            MonitorRule::parseList(cfg_.monitorRules));
        monitors_->bind(registry_);
    }

    epochs_.epochTicks = cfg_.intervalTicks;

    prevCounters_.resize(registry_.counters().size(), 0);
    counterTotals_.resize(registry_.counters().size(), 0);
    windows_.resize(registry_.latencies().size());
    for (LatencyWindow& w : windows_)
        w.ring.resize(cfg_.windowFrames);
}

TelemetrySampler::~TelemetrySampler() = default;

void
TelemetrySampler::start()
{
    SDPCM_ASSERT(!started_, "telemetry sampler started twice");
    started_ = true;
    const auto& counters = registry_.counters();
    for (std::size_t i = 0; i < counters.size(); ++i)
        prevCounters_[i] = counters[i].poll();
    const auto& lats = registry_.latencies();
    for (std::size_t i = 0; i < lats.size(); ++i)
        windows_[i].prevCum = lats[i].stat->sketch();
    if (cfg_.watchdogTicks > 0) {
        // The watchdog rides the frame hook, so its effective resolution
        // is one frame; a window below the interval could never observe
        // an intact window and would flag every gap.
        SDPCM_ASSERT(cfg_.watchdogTicks >= cfg_.intervalTicks,
                     "watchdog window (", cfg_.watchdogTicks,
                     ") must be >= the telemetry interval (",
                     cfg_.intervalTicks, ")");
    }
    writeMeta();
    events_.setTickHook(cfg_.intervalTicks,
                        [this](Tick now) { takeFrame(now); });
}

void
TelemetrySampler::finalize()
{
    if (finalized_)
        return;
    SDPCM_ASSERT(started_, "telemetry sampler finalized before start");
    finalized_ = true;
    events_.clearTickHook();

    // Capture the tail partial frame (activity since the last boundary).
    // Hooks fire *before* the first event at a boundary tick, so a run
    // whose last event lands exactly on a boundary retires work after
    // the final in-run poll: catch it by comparing the cumulative state
    // against the last frame's, not just the tick.
    if (events_.now() > lastFrameTick_ || summary_.frames == 0 ||
        unobservedActivity())
        takeFrame(events_.now());

    // Telescoping invariant: the wrap-sum of frame deltas must equal
    // the final cumulative poll for every counter — a frame was never
    // missed, double-counted, or torn.
    const auto& counters = registry_.counters();
    for (std::size_t i = 0; i < counters.size(); ++i) {
        const std::uint64_t cum = counters[i].poll();
        SDPCM_ASSERT(counterTotals_[i] == cum,
                     "telemetry frame deltas for '", counters[i].name,
                     "' sum to ", counterTotals_[i],
                     " but the cumulative counter reads ", cum);
        summary_.counterTotals[counters[i].name] = counterTotals_[i];
    }
    if (monitors_) {
        summary_.breaches = monitors_->totalBreaches();
        summary_.breachesByRule = monitors_->breachesByRule();
        summary_.worstByRule = monitors_->worstByRule();
        summary_.evaluationsByRule = monitors_->evaluationsByRule();
        for (const auto& [rule, evals] : summary_.evaluationsByRule) {
            if (evals == 0) {
                SDPCM_WARN("SLO rule '", rule, "' never evaluated: its "
                           "window held zero samples in all ",
                           summary_.frames, " frames — the rule guarded "
                           "nothing");
            }
        }
        for (const auto& [rule, n] : summary_.breachesByRule) {
            const auto worst = summary_.worstByRule.find(rule);
            SDPCM_WARN("SLO rule '", rule, "' breached in ", n, " of ",
                       summary_.frames, " frames (worst value ",
                       worst != summary_.worstByRule.end()
                           ? worst->second : 0.0, ")");
        }
    }
    if (watchdog_)
        summary_.watchdogStalls = watchdog_->stalls();

    writeSummaryLine(events_.now());
    if (stream_.is_open()) {
        stream_.flush();
        SDPCM_ASSERT(stream_.good(), "error writing telemetry file: ",
                     cfg_.path);
    }
    writePromFile();
}

void
TelemetrySampler::setWatchdog(std::unique_ptr<Watchdog> watchdog)
{
    watchdog_ = std::move(watchdog);
}

bool
TelemetrySampler::unobservedActivity() const
{
    const auto& counters = registry_.counters();
    for (std::size_t i = 0; i < counters.size(); ++i) {
        if (counters[i].poll() != prevCounters_[i])
            return true;
    }
    const auto& latencies = registry_.latencies();
    for (std::size_t i = 0; i < latencies.size(); ++i) {
        if (latencies[i].stat->sketch().count() !=
            windows_[i].prevCum.count())
            return true;
    }
    return false;
}

void
TelemetrySampler::takeFrame(Tick now)
{
    PROF_SCOPE(prof_, TelemetryPoll);
    FrameData fd;
    fd.tick = now;
    fd.seq = summary_.frames;
    fd.intervalTicks = cfg_.intervalTicks;

    const auto& counters = registry_.counters();
    for (std::size_t i = 0; i < counters.size(); ++i) {
        const std::uint64_t cur = counters[i].poll();
        // Wrap-subtraction: a cycle refund (write cancellation) can make
        // an individual delta negative; the unsigned wrap-sum still
        // telescopes to the cumulative total exactly.
        const std::uint64_t delta = cur - prevCounters_[i];
        counterTotals_[i] += delta;
        prevCounters_[i] = cur;
        fd.counterDeltas.emplace(counters[i].name,
                                 static_cast<std::int64_t>(delta));
    }
    for (const MetricRegistry::Gauge& g : registry_.gauges())
        fd.gauges.emplace(g.name, g.poll());

    const auto& lats = registry_.latencies();
    for (std::size_t i = 0; i < lats.size(); ++i) {
        LatencyWindow& w = windows_[i];
        const QuantileSketch cur = lats[i].stat->sketch();
        w.ring[fd.seq % cfg_.windowFrames] = cur.diff(w.prevCum);
        w.prevCum = cur;
        w.window.reset();
        for (const QuantileSketch& epoch : w.ring)
            w.window.merge(epoch);
        WindowView view;
        view.count = w.window.count();
        view.sketch = &w.window;
        fd.windows.emplace(lats[i].name, view);
    }

    summary_.frames += 1;
    lastFrameTick_ = now;
    writeFrame(fd);
    appendEpochRow(fd);

    if (monitors_) {
        for (const BreachEvent& b : monitors_->evaluate(fd)) {
            if (warnedRules_.insert(b.rule).second) {
                SDPCM_WARN("SLO breach: rule '", b.rule, "' value ",
                           b.value, " violates limit ", b.limit,
                           " at tick ", b.tick,
                           " (further breaches of this rule stream "
                           "silently; totals at end of run)");
            }
            if (stream_.is_open()) {
                JsonWriter w(stream_, false);
                w.beginObject();
                w.kv("type", "breach");
                w.kv("tick", static_cast<std::uint64_t>(b.tick));
                w.kv("seq", b.seq);
                w.kv("rule", b.rule);
                w.kv("value", b.value);
                w.kv("limit", b.limit);
                w.endObject();
                stream_ << "\n";
            }
            if (trace_) {
                trace_->instant(0, "slo_breach", "monitor", now,
                                {{"value", b.value},
                                 {"limit", b.limit}});
            }
        }
    }
    if (watchdog_ && watchdog_->check(now)) {
        const Tick idle = watchdog_->window();
        SDPCM_WARN("watchdog: no request retired for ", idle,
                   " ticks with work pending (tick ", now,
                   ") — run looks stalled");
        if (stream_.is_open()) {
            JsonWriter w(stream_, false);
            w.beginObject();
            w.kv("type", "stall");
            w.kv("tick", static_cast<std::uint64_t>(now));
            w.kv("seq", fd.seq);
            w.kv("window", static_cast<std::uint64_t>(idle));
            w.endObject();
            stream_ << "\n";
        }
        if (trace_) {
            trace_->instant(0, "watchdog_stall", "monitor", now,
                            {{"window", static_cast<double>(idle)}});
        }
    }
}

void
TelemetrySampler::appendEpochRow(const FrameData& fd)
{
    EpochSample row;
    row.tick = fd.tick;
    bool moved = false;
    for (const EpochColumn& c : kEpochCounters) {
        // Back to the unsigned wrap delta the column has always held.
        row.*c.field =
            static_cast<std::uint64_t>(fd.counterDeltas.at(c.metric));
        moved |= row.*c.field != 0;
    }
    for (const EpochColumn& c : kEpochGauges)
        row.*c.field = fd.gauges.at(c.metric);

    // The only frame that can share the previous row's tick is the
    // catch-up frame finalize() takes for activity after a boundary
    // poll. When none of that activity reached an epoch column (a
    // PreRead issued on the final tick moves only ctrl.preReadsIssued
    // and device.lineReads), the row would repeat its predecessor's
    // tick with all-zero deltas, so the series keeps no such row.
    if (!moved && !epochs_.samples.empty() &&
        epochs_.samples.back().tick == row.tick)
        return;
    epochs_.samples.push_back(row);
    if (!trace_)
        return;
    trace_->counter("queues", row.tick,
                    {{"reads_queued", static_cast<double>(row.readQueued)},
                     {"writes_queued",
                      static_cast<double>(row.writeQueued)},
                     {"pending_corrections",
                      static_cast<double>(row.pendingCorrections)}});
    trace_->counter("throughput", row.tick,
                    {{"reads_serviced",
                      static_cast<double>(row.readsServiced)},
                     {"writes_completed",
                      static_cast<double>(row.writesCompleted)}});
}

void
TelemetrySampler::writeMeta()
{
    if (!stream_.is_open())
        return;
    JsonWriter w(stream_, false);
    w.beginObject();
    w.kv("type", "meta");
    w.kv("kind", "sdpcm_telemetry");
    w.kv("version", static_cast<std::uint64_t>(1));
    w.kv("scheme", scheme_);
    w.kv("workload", workload_);
    w.kv("interval_ticks", static_cast<std::uint64_t>(cfg_.intervalTicks));
    w.kv("window_frames", static_cast<std::uint64_t>(cfg_.windowFrames));
    w.key("counters").beginArray();
    for (const auto& c : registry_.counters())
        w.value(c.name);
    w.endArray();
    w.key("gauges").beginArray();
    for (const auto& g : registry_.gauges())
        w.value(g.name);
    w.endArray();
    w.key("latencies").beginArray();
    for (const auto& l : registry_.latencies())
        w.value(l.name);
    w.endArray();
    w.key("rules").beginArray();
    if (monitors_) {
        for (const MonitorRule& r : monitors_->rules())
            w.value(r.describe());
    }
    w.endArray();
    w.kv("watchdog_ticks",
         static_cast<std::uint64_t>(cfg_.watchdogTicks));
    w.endObject();
    stream_ << "\n";
}

void
TelemetrySampler::writeFrame(const FrameData& fd)
{
    if (!stream_.is_open())
        return;
    JsonWriter w(stream_, false);
    w.beginObject();
    w.kv("type", "frame");
    w.kv("seq", fd.seq);
    w.kv("tick", static_cast<std::uint64_t>(fd.tick));
    w.key("counters").beginObject();
    for (const auto& [name, delta] : fd.counterDeltas)
        w.kv(name, static_cast<double>(delta));
    w.endObject();
    w.key("gauges").beginObject();
    for (const auto& [name, value] : fd.gauges)
        w.kv(name, value);
    w.endObject();
    w.key("windows").beginObject();
    for (const auto& [name, view] : fd.windows) {
        w.key(name).beginObject();
        w.kv("count", view.count);
        w.kv("p50", view.percentile(0.50));
        w.kv("p95", view.percentile(0.95));
        w.kv("p99", view.percentile(0.99));
        w.endObject();
    }
    w.endObject();
    w.endObject();
    stream_ << "\n";
}

void
TelemetrySampler::writeSummaryLine(Tick now)
{
    if (!stream_.is_open())
        return;
    JsonWriter w(stream_, false);
    w.beginObject();
    w.kv("type", "summary");
    w.kv("tick", static_cast<std::uint64_t>(now));
    w.kv("frames", summary_.frames);
    w.key("totals").beginObject();
    for (const auto& [name, total] : summary_.counterTotals)
        w.kv(name, total);
    w.endObject();
    w.key("breaches").beginObject();
    for (const auto& [rule, n] : summary_.breachesByRule)
        w.kv(rule, n);
    w.endObject();
    // Schema-additive (tools tolerate its absence in old streams):
    // frames each rule actually evaluated against — 0 flags a rule
    // whose windows were always empty.
    w.key("evaluations").beginObject();
    for (const auto& [rule, n] : summary_.evaluationsByRule)
        w.kv(rule, n);
    w.endObject();
    w.kv("watchdog_stalls", summary_.watchdogStalls);
    w.endObject();
    stream_ << "\n";
}

void
TelemetrySampler::writePromFile()
{
    if (cfg_.promPath.empty())
        return;
    std::ofstream os(cfg_.promPath);
    if (!os)
        SDPCM_FATAL("cannot open prometheus file: ", cfg_.promPath);
    const std::string labels = "{scheme=\"" + promLabelValue(scheme_) +
                               "\",workload=\"" +
                               promLabelValue(workload_) + "\"}";
    for (const auto& c : registry_.counters()) {
        const std::string n = promName(c.name);
        os << "# TYPE " << n << " counter\n"
           << n << labels << " " << c.poll() << "\n";
    }
    for (const auto& g : registry_.gauges()) {
        const std::string n = promName(g.name);
        os << "# TYPE " << n << " gauge\n"
           << n << labels << " " << g.poll() << "\n";
    }
    for (const auto& l : registry_.latencies()) {
        const std::string n = promName(l.name);
        os << "# TYPE " << n << " summary\n";
        for (const double q : {0.5, 0.95, 0.99}) {
            os << n << "{scheme=\"" << promLabelValue(scheme_)
               << "\",workload=\"" << promLabelValue(workload_)
               << "\",quantile=\"" << q << "\"} "
               << l.stat->percentile(q) << "\n";
        }
        os << n << "_sum" << labels << " " << l.stat->sum() << "\n"
           << n << "_count" << labels << " " << l.stat->count() << "\n";
    }
    if (monitors_) {
        const std::string n = "sdpcm_mon_breaches";
        os << "# TYPE " << n << " counter\n";
        for (const auto& [rule, count] : monitors_->breachesByRule()) {
            os << n << "{scheme=\"" << promLabelValue(scheme_)
               << "\",workload=\"" << promLabelValue(workload_)
               << "\",rule=\"" << promLabelValue(rule) << "\"} " << count
               << "\n";
        }
    }
    os.flush();
    SDPCM_ASSERT(os.good(), "error writing prometheus file: ",
                 cfg_.promPath);
}

} // namespace sdpcm
