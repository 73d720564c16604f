#include "spans.hh"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace perfbench {

int
SpanLog::open(const std::string &name, int job)
{
    Span s;
    s.name = name;
    s.start = nowNs();
    s.end = -1;
    s.parent = current();
    s.job = job;
    const int id = add(s);
    stack_.push_back(id);
    return id;
}

void
SpanLog::close(int id)
{
    if (stack_.empty() || stack_.back() != id)
        throw std::logic_error("span closed out of order: " +
                               spans_.at(static_cast<std::size_t>(id)).name);
    stack_.pop_back();
    spans_[static_cast<std::size_t>(id)].end = nowNs();
}

int
SpanLog::add(const Span &s)
{
    const int id = static_cast<int>(spans_.size());
    spans_.push_back(s);
    children_.emplace_back();
    if (s.parent >= 0)
        children_.at(static_cast<std::size_t>(s.parent)).push_back(id);
    return id;
}

void
SpanLog::absorb(const SpanLog &other, int parent, int track)
{
    const int offset = static_cast<int>(spans_.size());
    for (const Span &o : other.spans_) {
        Span s = o;
        s.parent = o.parent < 0 ? parent : o.parent + offset;
        s.track = track + o.track;
        add(s);
    }
}

std::int64_t
SpanLog::selfNs(std::size_t i) const
{
    const Span &s = spans_[i];
    std::int64_t covered = 0;
    for (const int c : children_[i]) {
        const Span &child = spans_[static_cast<std::size_t>(c)];
        if (child.track == s.track)
            covered += child.duration() *
                       static_cast<std::int64_t>(child.weight);
    }
    return static_cast<std::int64_t>(s.weight) * (s.duration() - covered);
}

std::int64_t
SpanLog::trackSelfNs(int root) const
{
    std::int64_t sum = selfNs(static_cast<std::size_t>(root));
    const int track = spans_[static_cast<std::size_t>(root)].track;
    for (const int c : children_[static_cast<std::size_t>(root)]) {
        if (spans_[static_cast<std::size_t>(c)].track == track)
            sum += trackSelfNs(c);
    }
    return sum;
}

std::map<std::string, double>
SpanLog::selfSecondsByName() const
{
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i)
        out[spans_[i].name] += static_cast<double>(selfNs(i)) * 1e-9;
    return out;
}

std::map<std::string, double>
SpanLog::totalSecondsByName() const
{
    std::map<std::string, double> out;
    for (const Span &s : spans_)
        out[s.name] += static_cast<double>(s.duration()) *
                       static_cast<double>(s.weight) * 1e-9;
    return out;
}

std::string
SpanLog::validate() const
{
    if (!stack_.empty())
        return "span '" + spans_[static_cast<std::size_t>(stack_.back())].name +
               "' left open";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        if (s.end < s.start)
            return "span '" + s.name + "' ends before it starts";
        if (s.parent >= 0) {
            const Span &p = spans_[static_cast<std::size_t>(s.parent)];
            if (s.start < p.start || s.end > p.end)
                return "span '" + s.name + "' lies outside its parent '" +
                       p.name + "'";
        }
        std::vector<const Span *> sameTrack;
        for (const int c : children_[i]) {
            const Span &child = spans_[static_cast<std::size_t>(c)];
            if (child.track == s.track)
                sameTrack.push_back(&child);
        }
        std::sort(sameTrack.begin(), sameTrack.end(),
                  [](const Span *a, const Span *b) {
                      return a->start < b->start;
                  });
        for (std::size_t k = 1; k < sameTrack.size(); ++k) {
            if (sameTrack[k]->start < sameTrack[k - 1]->end)
                return "children '" + sameTrack[k - 1]->name + "' and '" +
                       sameTrack[k]->name + "' of '" + s.name +
                       "' overlap on one track";
        }
    }
    return "";
}

void
SpanLog::writeChromeTrace(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        throw std::runtime_error("cannot write span trace '" + path + "'");
    const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start;
    out << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::ostringstream ev;
        ev.precision(3);
        ev << std::fixed << "{\"name\":\"" << s.name
           << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.track
           << ",\"ts\":" << static_cast<double>(s.start - t0) * 1e-3
           << ",\"dur\":" << static_cast<double>(s.duration()) * 1e-3
           << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
           << ",\"job\":" << s.job << ",\"weight\":" << s.weight << "}}";
        out << (i ? ",\n" : "\n") << ev.str();
    }
    out << "\n]}\n";
}

} // namespace perfbench
