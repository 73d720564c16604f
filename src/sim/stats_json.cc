#include "sim/stats_json.hh"

#include <cmath>
#include <limits>
#include <ostream>

#include "sim/json_writer.hh"
#include "sim/logging.hh"

namespace smartref {

namespace {

/** JSON has no NaN/Infinity literals; emit null for non-finite values. */
void
writeNumber(std::ostream &os, double v)
{
    if (std::isfinite(v))
        os << v;
    else
        os << "null";
}

void
writeStat(std::ostream &os, const std::string &fullName,
          const StatBase &stat)
{
    os << "    " << jsonQuoted(fullName) << ": {";

    auto field = [&os, first = true](const char *key) mutable
        -> std::ostream & {
        if (!first)
            os << ", ";
        first = false;
        os << "\"" << key << "\": ";
        return os;
    };

    if (const auto *s = dynamic_cast<const Scalar *>(&stat)) {
        field("kind") << "\"scalar\"";
        writeNumber(field("value"), s->value());
    } else if (const auto *v = dynamic_cast<const VectorStat *>(&stat)) {
        field("kind") << "\"vector\"";
        field("labels") << "[";
        for (std::size_t i = 0; i < v->size(); ++i) {
            os << (i ? ", " : "") << jsonQuoted(v->label(i));
        }
        os << "]";
        field("values") << "[";
        for (std::size_t i = 0; i < v->size(); ++i) {
            os << (i ? ", " : "");
            writeNumber(os, v->at(i));
        }
        os << "]";
        writeNumber(field("total"), v->total());
    } else if (const auto *h = dynamic_cast<const Histogram *>(&stat)) {
        field("kind") << "\"histogram\"";
        field("samples") << h->samples();
        writeNumber(field("mean"), h->mean());
        writeNumber(field("stddev"), h->stddev());
        writeNumber(field("min"), h->min());
        writeNumber(field("max"), h->max());
        writeNumber(field("lo"), h->bucketLo());
        writeNumber(field("hi"), h->bucketHi());
        writeNumber(field("p50"), h->percentile(0.50));
        writeNumber(field("p95"), h->percentile(0.95));
        writeNumber(field("p99"), h->percentile(0.99));
        field("underflows") << h->underflows();
        field("overflows") << h->overflows();
        field("buckets") << "[";
        for (std::size_t i = 0; i < h->numBuckets(); ++i)
            os << (i ? ", " : "") << h->bucketCount(i);
        os << "]";
    } else if (const auto *f = dynamic_cast<const Formula *>(&stat)) {
        field("kind") << "\"formula\"";
        writeNumber(field("value"), f->value());
    } else {
        SMARTREF_PANIC("unknown stat kind for '", fullName, "'");
    }

    if (!stat.desc().empty())
        field("desc") << jsonQuoted(stat.desc());
    os << "}";
}

void
walk(std::ostream &os, const StatGroup &root, const StatGroup &group,
     const std::string &prefix, bool &first)
{
    for (const StatBase *stat : group.stats()) {
        const std::string name = prefix + stat->name();
        // Every exported key must resolve back to the stat it names:
        // this pins resolveStat() and the export format to each other.
        SMARTREF_ASSERT(root.resolveStat(name) == stat,
                        "stat path '", name, "' does not resolve");
        os << (first ? "" : ",\n");
        first = false;
        writeStat(os, name, *stat);
    }
    for (const StatGroup *child : group.children())
        walk(os, root, *child, prefix + child->statName() + ".", first);
}

} // namespace

double
statValue(const StatBase &stat)
{
    if (const auto *s = dynamic_cast<const Scalar *>(&stat))
        return s->value();
    if (const auto *v = dynamic_cast<const VectorStat *>(&stat))
        return v->total();
    if (const auto *h = dynamic_cast<const Histogram *>(&stat))
        return static_cast<double>(h->samples());
    if (const auto *f = dynamic_cast<const Formula *>(&stat))
        return f->value();
    return 0.0;
}

void
writeStatsJson(const StatGroup &root, std::ostream &os,
               const std::string &metaJson)
{
    os.precision(std::numeric_limits<double>::max_digits10);
    os << "{\n  \"root\": " << jsonQuoted(root.statName()) << ",\n";
    if (!metaJson.empty())
        os << "  \"meta\": " << metaJson << ",\n";
    os << "  \"stats\": {\n";
    bool first = true;
    const std::string prefix =
        root.statName().empty() ? "" : root.statName() + ".";
    walk(os, root, root, prefix, first);
    os << "\n  }\n}\n";
}

} // namespace smartref
