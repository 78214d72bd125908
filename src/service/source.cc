#include "service/source.hh"

#include <cstring>
#include <numeric>

#include "apps/nstore/nstore.hh"
#include "apps/redis/redis.hh"
#include "apps/trees/pmem_map.hh"
#include "pmemlib/pmem_pool.hh"
#include "redundancy/raw_coverage.hh"
#include "sim/rng.hh"

namespace tvarak::service {

namespace {

/** Decorrelate per-server request streams from one CLI seed. */
std::uint64_t
sourceSeed(std::uint64_t seed, int tid)
{
    return seed * 0x9e3779b97f4a7c15ull +
        static_cast<std::uint64_t>(tid) * 0xbf58476d1ce4e5b9ull + 1;
}

/** redis SET over a bounded keyspace: every request is one pmem
 *  transaction (plus a rehash step), the paper's Section IV-B load. */
class RedisSetSource final : public RequestSource
{
  public:
    RedisSetSource(MemorySystem &mem, DaxFs &fs, int tid,
                   RedundancyScheme *scheme, std::size_t scale,
                   std::uint64_t seed)
        : RequestSource(mem, tid), fs_(fs), scheme_(scheme),
          keyspace_(2048 * scale), rng_(sourceSeed(seed, tid)),
          poolBytes_((2ull << 20) * scale)
    {}

    void setup() override
    {
        pool_ = std::make_unique<PmemPool>(
            mem_, fs_, "svc-redis" + std::to_string(tid_), poolBytes_,
            scheme_, 1);
        store_ = std::make_unique<RedisStore>(mem_, *pool_, 8);
        // Preload the keyspace (scheme off: equivalent to restoring a
        // pre-built snapshot) so measured SETs overwrite in steady
        // state instead of growing the table mid-run.
        pool_->setSchemeEnabled(false);
        char key[RedisStore::kKeyBytes];
        std::uint64_t value = 0;
        for (std::uint64_t id = 0; id < keyspace_; id++) {
            makeKey(id, key);
            store_->set(tid_, key, &value);
        }
        pool_->setSchemeEnabled(true);
    }

    void serve(std::uint64_t reqId) override
    {
        char key[RedisStore::kKeyBytes];
        makeKey(rng_.nextBounded(keyspace_), key);
        store_->set(tid_, key, &reqId);
    }

    std::string name() const override { return "redis-set"; }

  private:
    void makeKey(std::uint64_t id, char *out) const
    {
        std::memcpy(out, "key:\0\0\0\0", 8);
        std::memcpy(out + 8, &id, sizeof(id));
    }

    DaxFs &fs_;
    RedundancyScheme *scheme_;
    std::uint64_t keyspace_;
    Rng rng_;
    std::size_t poolBytes_;
    std::unique_ptr<PmemPool> pool_;
    std::unique_ptr<RedisStore> store_;
};

/** ctree insert over a bounded keyspace: overwrites free the old
 *  value object, so pool usage stays bounded for any request count. */
class CTreeInsertSource final : public RequestSource
{
  public:
    CTreeInsertSource(MemorySystem &mem, DaxFs &fs, int tid,
                      RedundancyScheme *scheme, std::size_t scale,
                      std::uint64_t seed)
        : RequestSource(mem, tid), fs_(fs), scheme_(scheme),
          keyspace_(2048 * scale), rng_(sourceSeed(seed, tid)),
          poolBytes_((4ull << 20) * scale)
    {}

    void setup() override
    {
        pool_ = std::make_unique<PmemPool>(
            mem_, fs_, "svc-ctree" + std::to_string(tid_), poolBytes_,
            scheme_, 1);
        map_ = makeMap(MapKind::CTree, mem_, *pool_, kValueBytes);
        pool_->setSchemeEnabled(false);
        std::uint8_t value[kValueBytes] = {};
        for (std::uint64_t key = 0; key < keyspace_; key++) {
            map_->insert(tid_, key, value);
        }
        pool_->setSchemeEnabled(true);
    }

    void serve(std::uint64_t reqId) override
    {
        std::uint8_t value[kValueBytes];
        std::memset(value, static_cast<int>(reqId & 0xff), sizeof(value));
        map_->insert(tid_, rng_.nextBounded(keyspace_), value);
    }

    std::string name() const override { return "ctree-insert"; }

  private:
    static constexpr std::size_t kValueBytes = 64;

    DaxFs &fs_;
    RedundancyScheme *scheme_;
    std::uint64_t keyspace_;
    Rng rng_;
    std::size_t poolBytes_;
    std::unique_ptr<PmemPool> pool_;
    std::unique_ptr<PmemMap> map_;
};

/** N-Store YCSB-balanced: 50% one-field update transactions (WAL node
 *  + tuple write), 50% point reads, hot-set skew as in the paper. */
class NStoreBalancedSource final : public RequestSource
{
  public:
    NStoreBalancedSource(MemorySystem &mem, DaxFs &fs, int tid,
                         RedundancyScheme *scheme, std::size_t scale,
                         std::uint64_t seed)
        : RequestSource(mem, tid), fs_(fs), scheme_(scheme),
          tuples_(1024 * scale), rng_(sourceSeed(seed, tid)),
          keys_(tuples_, 0.08, 0.90, sourceSeed(seed, tid) ^ 0x5ca1ab1e)
    {}

    void setup() override
    {
        store_ = std::make_unique<NStore>(
            mem_, fs_, scheme_, tuples_, kWalSlots, 1,
            "svc-nstore" + std::to_string(tid_));
    }

    void serve(std::uint64_t reqId) override
    {
        std::uint64_t tupleId = keys_.next();
        std::size_t field = rng_.nextBounded(NStore::kFields);
        if (rng_.nextBool(0.5)) {
            std::uint8_t value[NStore::kFieldBytes];
            std::memset(value, static_cast<int>(reqId & 0xff),
                        sizeof(value));
            store_->updateTx(tid_, tupleId, field, value);
        } else {
            std::uint8_t value[NStore::kFieldBytes];
            store_->readTx(tid_, tupleId, field, value);
        }
    }

    std::string name() const override { return "nstore-balanced"; }

  private:
    static constexpr std::size_t kWalSlots = 4096;

    DaxFs &fs_;
    RedundancyScheme *scheme_;
    std::size_t tuples_;
    Rng rng_;
    HotSetGenerator keys_;
    std::unique_ptr<NStore> store_;
};

/** fio random 64 B writes: a permutation walk over the region (no
 *  locality), a few lines per request, coverage informing the TxB
 *  schemes after each store. */
class FioRandWriteSource final : public RequestSource
{
  public:
    FioRandWriteSource(MemorySystem &mem, DaxFs &fs, int tid,
                       RedundancyScheme *scheme, std::size_t scale,
                       std::uint64_t /*seed*/)
        : RequestSource(mem, tid), fs_(fs), scheme_(scheme),
          regionBytes_((1ull << 20) * scale)
    {}

    void setup() override
    {
        std::size_t table = RawCoverage::tableBytes(regionBytes_);
        int fd = fs_.create("svc-fio" + std::to_string(tid_),
                            regionBytes_ + table);
        base_ = fs_.daxMap(fd);
        lines_ = regionBytes_ / kLineBytes;
        permStride_ = lines_ / 2 + 73;
        while (std::gcd(permStride_, lines_) != 1)
            permStride_++;
        coverage_ = std::make_unique<RawCoverage>(
            mem_, scheme_, base_, regionBytes_, base_ + regionBytes_);
    }

    void serve(std::uint64_t reqId) override
    {
        std::uint8_t buf[kLineBytes];
        for (std::size_t i = 0; i < kLinesPerRequest; i++) {
            Addr a = base_ +
                ((next_ * permStride_) % lines_) * kLineBytes;
            next_++;
            std::memset(buf, static_cast<int>(reqId & 0xff), sizeof(buf));
            mem_.write(tid_, a, buf, kLineBytes);
            coverage_->onWrite(tid_, a, kLineBytes);
        }
    }

    std::string name() const override { return "fio-rand-write"; }

  private:
    static constexpr std::size_t kLinesPerRequest = 4;

    DaxFs &fs_;
    RedundancyScheme *scheme_;
    std::size_t regionBytes_;
    Addr base_ = 0;
    std::size_t lines_ = 0;
    std::size_t permStride_ = 0;
    std::size_t next_ = 0;
    std::unique_ptr<RawCoverage> coverage_;
};

/** STREAM triad on persistent arrays: sequential, bandwidth bound —
 *  the workload where redundancy overheads are largest (Fig 8). */
class StreamTriadSource final : public RequestSource
{
  public:
    StreamTriadSource(MemorySystem &mem, DaxFs &fs, int tid,
                      RedundancyScheme *scheme, std::size_t scale,
                      std::uint64_t /*seed*/)
        : RequestSource(mem, tid), fs_(fs), scheme_(scheme),
          chunkBytes_((256ull << 10) * scale)
    {}

    void setup() override
    {
        std::size_t table = RawCoverage::tableBytes(chunkBytes_);
        int fd = fs_.create("svc-stream" + std::to_string(tid_),
                            3 * chunkBytes_ + table);
        Addr base = fs_.daxMap(fd);
        a_ = base;
        b_ = base + chunkBytes_;
        c_ = base + 2 * chunkBytes_;
        lines_ = chunkBytes_ / kLineBytes;
        coverage_ = std::make_unique<RawCoverage>(
            mem_, scheme_, c_, chunkBytes_, base + 3 * chunkBytes_);
        // Source arrays need resident data.
        std::uint8_t buf[kLineBytes];
        for (std::size_t l = 0; l < lines_; l++) {
            std::memset(buf, static_cast<int>(l & 0xff), sizeof(buf));
            mem_.write(tid_, a_ + l * kLineBytes, buf, sizeof(buf));
            mem_.write(tid_, b_ + l * kLineBytes, buf, sizeof(buf));
        }
    }

    void serve(std::uint64_t /*reqId*/) override
    {
        std::uint8_t bufA[kLineBytes], bufB[kLineBytes], bufC[kLineBytes];
        for (std::size_t i = 0; i < kLinesPerRequest; i++) {
            std::size_t l = next_ % lines_;
            next_++;
            mem_.read(tid_, a_ + l * kLineBytes, bufA, kLineBytes);
            mem_.read(tid_, b_ + l * kLineBytes, bufB, kLineBytes);
            mem_.compute(tid_, 16);
            for (std::size_t j = 0; j < kLineBytes; j++) {
                bufC[j] = static_cast<std::uint8_t>(bufA[j] + 3 * bufB[j]);
            }
            mem_.write(tid_, c_ + l * kLineBytes, bufC, kLineBytes);
            coverage_->onWrite(tid_, c_ + l * kLineBytes, kLineBytes);
        }
    }

    std::string name() const override { return "stream-triad"; }

  private:
    static constexpr std::size_t kLinesPerRequest = 16;

    DaxFs &fs_;
    RedundancyScheme *scheme_;
    std::size_t chunkBytes_;
    Addr a_ = 0, b_ = 0, c_ = 0;
    std::size_t lines_ = 0;
    std::size_t next_ = 0;
    std::unique_ptr<RawCoverage> coverage_;
};

}  // namespace

const std::vector<ServiceWorkloadInfo> &
serviceWorkloads()
{
    static const std::vector<ServiceWorkloadInfo> catalog = {
        {"redis-set", "redis SET transactions over a bounded keyspace"},
        {"ctree-insert", "PMDK ctree inserts (overwrite steady state)"},
        {"nstore-balanced", "N-Store YCSB 50/50 update/read, hot-set skew"},
        {"fio-rand-write", "fio random 64B writes, permutation walk"},
        {"stream-triad", "STREAM triad slices on persistent arrays"},
    };
    return catalog;
}

std::unique_ptr<RequestSource>
makeSource(const std::string &workload, MemorySystem &mem, DaxFs &fs,
           int tid, RedundancyScheme *scheme, std::size_t scale,
           std::uint64_t seed)
{
    if (workload == "redis-set") {
        return std::make_unique<RedisSetSource>(mem, fs, tid, scheme,
                                                scale, seed);
    }
    if (workload == "ctree-insert") {
        return std::make_unique<CTreeInsertSource>(mem, fs, tid, scheme,
                                                   scale, seed);
    }
    if (workload == "nstore-balanced") {
        return std::make_unique<NStoreBalancedSource>(mem, fs, tid,
                                                      scheme, scale,
                                                      seed);
    }
    if (workload == "fio-rand-write") {
        return std::make_unique<FioRandWriteSource>(mem, fs, tid, scheme,
                                                    scale, seed);
    }
    if (workload == "stream-triad") {
        return std::make_unique<StreamTriadSource>(mem, fs, tid, scheme,
                                                   scale, seed);
    }
    return nullptr;
}

}  // namespace tvarak::service
