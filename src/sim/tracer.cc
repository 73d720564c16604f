#include "sim/tracer.hh"

#include <fstream>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "sim/json_writer.hh"
#include "sim/logging.hh"
#include "sim/suggest.hh"

namespace smartref {

const char *
toString(TraceCategory cat)
{
    switch (cat) {
      case TraceCategory::None: return "none";
      case TraceCategory::Dram: return "dram";
      case TraceCategory::Refresh: return "refresh";
      case TraceCategory::Counter: return "counter";
      case TraceCategory::Monitor: return "monitor";
      case TraceCategory::RowBuffer: return "rowbuf";
      case TraceCategory::Queue: return "queue";
      case TraceCategory::Interval: return "interval";
      case TraceCategory::All: return "all";
    }
    return "?";
}

TraceCategory
parseTraceCategories(const std::string &list)
{
    std::uint32_t mask = 0;
    std::istringstream iss(list);
    std::string token;
    while (std::getline(iss, token, ',')) {
        if (token.empty())
            continue;
        bool known = false;
        for (TraceCategory c :
             {TraceCategory::Dram, TraceCategory::Refresh,
              TraceCategory::Counter, TraceCategory::Monitor,
              TraceCategory::RowBuffer, TraceCategory::Queue,
              TraceCategory::Interval, TraceCategory::All,
              TraceCategory::None}) {
            if (token == toString(c)) {
                mask |= static_cast<std::uint32_t>(c);
                known = true;
                break;
            }
        }
        if (!known) {
            SMARTREF_FATAL("unknown trace category '", token, "'",
                           didYouMean(token,
                                      {"dram", "refresh", "counter",
                                       "monitor", "rowbuf", "queue",
                                       "interval", "all", "none"}),
                           " (dram, refresh, counter, monitor, rowbuf, "
                           "queue, interval, all)");
        }
    }
    return static_cast<TraceCategory>(mask);
}

namespace {

std::unique_ptr<std::ostream>
openTraceFile(const std::string &path)
{
    auto out = std::make_unique<std::ofstream>(path);
    if (!*out)
        SMARTREF_FATAL("cannot write trace file '", path, "'");
    return out;
}

/** Ticks (ps) to the microseconds Chrome's `ts`/`dur` fields expect. */
double
toMicros(Tick t)
{
    return static_cast<double>(t) / 1e6;
}

} // namespace

ChromeTraceSink::ChromeTraceSink(const std::string &path)
    : owned_(openTraceFile(path)), os_(owned_.get())
{
    *os_ << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
}

ChromeTraceSink::ChromeTraceSink(std::ostream &os) : os_(&os)
{
    *os_ << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
}

ChromeTraceSink::~ChromeTraceSink()
{
    finish();
}

void
ChromeTraceSink::write(const TraceEvent &ev)
{
    std::ostream &os = *os_;
    os << (first_ ? "\n" : ",\n");
    first_ = false;

    os << "{\"name\":" << jsonQuoted(ev.name)
       << ",\"cat\":\"" << toString(ev.cat) << "\",\"ph\":\""
       << static_cast<char>(ev.phase) << "\"";
    os << ",\"ts\":" << std::setprecision(15) << toMicros(ev.tick);
    if (ev.phase == TracePhase::Span)
        os << ",\"dur\":" << toMicros(ev.duration);
    if (ev.phase == TracePhase::Instant)
        os << ",\"s\":\"g\"";
    // One Perfetto track per rank; rank-less events share track 0.
    os << ",\"pid\":0,\"tid\":" << (ev.rank >= 0 ? ev.rank + 1 : 0);
    os << ",\"args\":{";
    bool firstArg = true;
    auto arg = [&](const char *key) -> std::ostream & {
        os << (firstArg ? "" : ",") << "\"" << key << "\":";
        firstArg = false;
        return os;
    };
    if (ev.phase == TracePhase::Counter) {
        arg("value") << std::setprecision(15) << ev.value;
    } else {
        if (ev.rank >= 0)
            arg("rank") << ev.rank;
        if (ev.bank >= 0)
            arg("bank") << ev.bank;
        if (ev.row >= 0)
            arg("row") << ev.row;
        if (ev.value != 0.0)
            arg("value") << std::setprecision(15) << ev.value;
        if (ev.detail)
            arg("detail") << jsonQuoted(ev.detail);
    }
    os << "}}";
}

void
ChromeTraceSink::finish()
{
    if (finished_)
        return;
    finished_ = true;
    *os_ << "\n]}\n";
    os_->flush();
}

CsvTraceSink::CsvTraceSink(const std::string &path)
    : owned_(openTraceFile(path)), os_(owned_.get())
{
    writeHeader();
}

CsvTraceSink::CsvTraceSink(std::ostream &os) : os_(&os)
{
    writeHeader();
}

CsvTraceSink::~CsvTraceSink()
{
    finish();
}

void
CsvTraceSink::writeHeader()
{
    *os_ << "tick_ps,category,name,rank,bank,row,value,duration_ps,"
            "detail\n";
}

void
CsvTraceSink::write(const TraceEvent &ev)
{
    std::ostream &os = *os_;
    os << ev.tick << ',' << toString(ev.cat) << ',' << ev.name << ',';
    if (ev.rank >= 0)
        os << ev.rank;
    os << ',';
    if (ev.bank >= 0)
        os << ev.bank;
    os << ',';
    if (ev.row >= 0)
        os << ev.row;
    os << ',' << std::setprecision(15) << ev.value << ',' << ev.duration
       << ',' << (ev.detail ? ev.detail : "") << '\n';
}

void
CsvTraceSink::finish()
{
    if (finished_)
        return;
    finished_ = true;
    os_->flush();
}

void
Tracer::addSink(std::unique_ptr<TraceSink> sink)
{
    SMARTREF_ASSERT(sink != nullptr, "null trace sink");
    sinks_.push_back(std::move(sink));
}

void
Tracer::reset()
{
    flush();
    sinks_.clear();
    mask_ = static_cast<std::uint32_t>(TraceCategory::All);
    emitted_ = 0;
}

void
Tracer::emit(const TraceEvent &ev)
{
    ++emitted_;
    for (auto &sink : sinks_)
        sink->write(ev);
}

void
Tracer::flush()
{
    for (auto &sink : sinks_)
        sink->finish();
}

constinit Tracer detail::globalTracerInstance;

} // namespace smartref
