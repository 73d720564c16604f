#include "cache/dram_cache.hh"

#include "sim/logging.hh"

namespace smartref {

DramCache::DramCache(MemoryController &dataCtrl, MemoryController &mainMem,
                     const DramCacheConfig &cfg, EventQueue &eq,
                     StatGroup *parent)
    : StatGroup("dramCache", parent),
      dataCtrl_(dataCtrl),
      mainMem_(mainMem),
      cfg_(cfg),
      eq_(eq),
      numLines_(dataCtrl.dram().config().org.capacityBytes() /
                cfg.lineSize),
      tags_(numLines_),
      tagSram_(static_cast<double>(numLines_) * cfg.tagBytesPerEntry /
                   1024.0,
               cfg.tagSram, this),
      accesses_(this, "accesses", "demand accesses"),
      hits_(this, "hits", "tag hits"),
      misses_(this, "misses", "tag misses"),
      writebacks_(this, "writebacks", "dirty victim writebacks"),
      fills_(this, "fills", "lines filled from main memory"),
      latency_(this, "latency", "demand latency through the cache (ticks)",
               0.0, 2.0e6, 64),
      latencySum_(this, "latencySum", "sum of demand latencies (ticks)")
{
    SMARTREF_ASSERT(numLines_ > 0, "cache smaller than one line");
}

std::uint32_t
DramCache::track(Tick arrival, Addr lineInCache, MemCallback cb)
{
    std::uint32_t id;
    if (!freeIds_.empty()) {
        id = freeIds_.back();
        freeIds_.pop_back();
    } else {
        id = static_cast<std::uint32_t>(inFlight_.size());
        inFlight_.emplace_back();
    }
    inFlight_[id] = InFlight{arrival, lineInCache, std::move(cb)};
    return id;
}

void
DramCache::complete(std::uint32_t id, const MemRequest &req, Tick done)
{
    InFlight &f = inFlight_[id];
    const Tick lat = done - f.arrival;
    latency_.sample(static_cast<double>(lat));
    latencySum_ += static_cast<double>(lat);
    // Release before the call: the callback may issue the next access.
    MemCallback cb = std::move(f.cb);
    f.cb = nullptr;
    freeIds_.push_back(id);
    if (cb)
        cb(req, done);
}

void
DramCache::access(Addr addr, bool write, MemCallback cb)
{
    ++accesses_;
    const std::uint64_t lineNo = addr / cfg_.lineSize;
    const std::uint64_t index = lineNo % numLines_;
    const std::uint64_t tag = lineNo / numLines_;
    const Addr lineInCache = index * cfg_.lineSize;
    const Addr offset = addr % cfg_.lineSize;

    tagSram_.recordTraffic(1, 0); // lookup

    const std::uint32_t id = track(eq_.now(), lineInCache, std::move(cb));

    TagEntry &entry = tags_[index];
    if (entry.valid && entry.tag == tag) {
        ++hits_;
        if (write) {
            entry.dirty = true;
            tagSram_.recordTraffic(0, 1);
        }
        // Data lives in the stacked DRAM: hit becomes a 3D access.
        eq_.scheduleAfter(cfg_.tagLatency,
                          [this, addr = lineInCache + offset, write, id] {
            dataCtrl_.access(addr, write,
                             [this, id](const MemRequest &req, Tick done) {
                complete(id, req, done);
            });
        }, EventPriority::Default, EventKind::Cache);
        return;
    }

    // Miss: evict (writeback if dirty), fetch from main memory, fill.
    ++misses_;
    if (entry.valid && entry.dirty) {
        ++writebacks_;
        const Addr victimAddr =
            (entry.tag * numLines_ + index) * cfg_.lineSize;
        eq_.scheduleAfter(cfg_.tagLatency, [this, victimAddr]() {
            mainMem_.access(victimAddr, true);
        }, EventPriority::Default, EventKind::Cache);
    }
    entry.valid = true;
    entry.tag = tag;
    entry.dirty = write;
    tagSram_.recordTraffic(0, 1);

    eq_.scheduleAfter(cfg_.tagLatency, [this, addr, id] {
        mainMem_.access(addr, false,
                        [this, id](const MemRequest &req, Tick done) {
            // Demand completes when the line arrives from main memory;
            // the fill write into the 3D DRAM is off the critical path.
            const Addr line = inFlight_[id].lineInCache;
            complete(id, req, done);
            ++fills_;
            eq_.schedule(done,
                         [this, line] { dataCtrl_.access(line, true); },
                         EventPriority::Default, EventKind::Cache);
        });
    }, EventPriority::Default, EventKind::Cache);
}

} // namespace smartref
