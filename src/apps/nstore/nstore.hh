/**
 * @file
 * N-Store equivalent: an NVM-optimized relational engine with a
 * linked-list write-ahead log (paper Section IV-D).
 *
 * The paper attributes N-Store's behaviour to one property: "each
 * update transaction allocates and writes to a linked list node.
 * Because the linked list layout is not sequential in NVM", updates
 * produce a random-write pattern that defeats redundancy-cache reuse.
 * We reproduce exactly that: a table of 1 KB YCSB-style tuples (10
 * fields of 100 B), per-client WAL chains whose nodes live in
 * deliberately fragmented (shuffled) slots — the state of an aged
 * allocator — and YCSB drivers with the paper's skew (90% of
 * transactions touch 10% of tuples).
 *
 * N-Store owns its durability via the WAL, so tuple/WAL writes are
 * not undo-logged by the pool (txWriteNoUndo); the transaction
 * boundary still drives the TxB schemes' redundancy work.
 */

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "harness/workload.hh"
#include "pmemlib/pmem_pool.hh"
#include "sim/rng.hh"

namespace tvarak {

class NStore
{
  public:
    static constexpr std::size_t kFields = 10;
    static constexpr std::size_t kFieldBytes = 100;
    /** Tuple: u64 id + 10 fields. */
    static constexpr std::size_t kTupleBytes = 8 + kFields * kFieldBytes;

    /** Table and WAL live in the pool file @p poolName; stores that
     *  share one file system need distinct names. */
    NStore(MemorySystem &mem, DaxFs &fs, RedundancyScheme *scheme,
           std::size_t tuples, std::size_t walSlots,
           std::size_t clients, const std::string &poolName = "nstore");

    /** YCSB update: one field rewritten, WAL node first. */
    void updateTx(int tid, std::uint64_t tupleId, std::size_t field,
                  const void *value);
    /** YCSB read: one field (point query). */
    void readTx(int tid, std::uint64_t tupleId, std::size_t field,
                void *value);
    /** Full-record scan (tests / table scans). */
    void readRecord(int tid, std::uint64_t tupleId, void *record);

    std::size_t tuples() const { return tuples_; }
    PmemPool &pool() { return *pool_; }

    /** Verify a WAL chain's linkage (tests). @return chain length. */
    std::size_t walChainLength(int tid);

  private:
    Addr tupleAddr(std::uint64_t tupleId) const;
    Addr nextWalSlot(int tid);

    MemorySystem &mem_;
    std::unique_ptr<PmemPool> pool_;
    std::size_t tuples_;
    std::size_t clients_;
    std::vector<Addr> tupleAddrs_;
    /** Shuffled WAL slots per client (aged-allocator layout). */
    std::vector<std::vector<Addr>> walSlots_;
    std::vector<std::size_t> walCursor_;
    std::vector<Addr> walHeadSlot_;  //!< persistent head pointers
    std::uint64_t nextTxid_ = 1;
};

/** YCSB driver over a shared NStore (paper: 4 client threads). */
class NStoreWorkload final : public Workload
{
  public:
    enum class Mix { UpdateHeavy, Balanced, ReadHeavy };

    struct Params {
        Mix mix = Mix::Balanced;
        std::size_t txPerClient = 131072;
        double hotTupleFrac = 0.08;
        double hotOpFrac = 0.90;
        std::size_t sliceOps = 512;
    };

    NStoreWorkload(MemorySystem &mem, std::shared_ptr<NStore> store,
                   int tid, Params params);

    void setup() override {}
    bool step() override;
    int tid() const override { return tid_; }
    std::string name() const override;

    static const char *mixName(Mix mix);
    /** Update fraction of a mix (paper: 90/50/10 %). */
    static double updateFraction(Mix mix);

  private:
    MemorySystem &mem_;
    std::shared_ptr<NStore> store_;
    int tid_;
    Params params_;
    Rng rng_;
    HotSetGenerator keys_;
    std::size_t done_ = 0;
};

}  // namespace tvarak

