#include "apps/nstore/nstore.hh"

#include <cstring>

#include "sim/log.hh"

namespace tvarak {

namespace {

/** WAL node: txid, tupleId, field, before image, next. */
constexpr std::size_t kWalTxid = 0, kWalTuple = 8, kWalField = 16,
                      kWalBefore = 24;
constexpr std::size_t kWalNext = kWalBefore + NStore::kFieldBytes;
constexpr std::size_t kWalNodeBytes = kWalNext + 8;

}  // namespace

NStore::NStore(MemorySystem &mem, DaxFs &fs, RedundancyScheme *scheme,
               std::size_t tuples, std::size_t walSlots,
               std::size_t clients, const std::string &poolName)
    : mem_(mem), tuples_(tuples), clients_(clients)
{
    panic_if(clients == 0 || clients > 8, "unreasonable client count");
    std::size_t heap = tuples * (kTupleBytes + 64) +
        walSlots * (kWalNodeBytes + 64) + (1u << 20);
    pool_ = std::make_unique<PmemPool>(mem, fs, poolName, heap, scheme,
                                       clients);
    pool_->setSchemeEnabled(false);  // unmeasured load phase

    // Table: one object per tuple, ids written in place (setup is
    // part of the unmeasured load phase).
    tupleAddrs_.reserve(tuples);
    for (std::size_t i = 0; i < tuples; i++) {
        Addr t = pool_->alloc(static_cast<int>(i % clients),
                              kTupleBytes);
        mem_.write64(static_cast<int>(i % clients), t,
                     static_cast<std::uint64_t>(i));
        tupleAddrs_.push_back(t);
    }

    // WAL arena: pre-allocated nodes handed out in *shuffled* order,
    // reproducing the aged allocator's non-sequential layout.
    std::vector<Addr> all;
    all.reserve(walSlots);
    for (std::size_t i = 0; i < walSlots; i++) {
        all.push_back(pool_->alloc(static_cast<int>(i % clients),
                                   kWalNodeBytes));
    }
    Rng shuffle(0x5eed);
    for (std::size_t i = all.size(); i > 1; i--) {
        std::size_t j = shuffle.nextBounded(i);
        std::swap(all[i - 1], all[j]);
    }
    walSlots_.resize(clients);
    walCursor_.assign(clients, 0);
    for (std::size_t i = 0; i < all.size(); i++)
        walSlots_[i % clients].push_back(all[i]);

    // Persistent per-client WAL heads.
    for (std::size_t c = 0; c < clients; c++)
        walHeadSlot_.push_back(pool_->alloc(static_cast<int>(c), 8));
    pool_->setSchemeEnabled(true);
}

Addr
NStore::tupleAddr(std::uint64_t tupleId) const
{
    panic_if(tupleId >= tuples_, "tuple id out of range");
    return tupleAddrs_[static_cast<std::size_t>(tupleId)];
}

Addr
NStore::nextWalSlot(int tid)
{
    auto c = static_cast<std::size_t>(tid) % clients_;
    auto &slots = walSlots_[c];
    Addr slot = slots[walCursor_[c]];
    // Circular log: steady state reuses (checkpoint-truncated) slots.
    walCursor_[c] = (walCursor_[c] + 1) % slots.size();
    return slot;
}

void
NStore::updateTx(int tid, std::uint64_t tupleId, std::size_t field,
                 const void *value)
{
    panic_if(field >= kFields, "field out of range");
    Addr tuple = tupleAddr(tupleId);
    Addr field_addr = tuple + 8 + field * kFieldBytes;

    pool_->txBegin(tid);
    // WAL first: before-image into a (random-placed) list node.
    Addr node = nextWalSlot(tid);
    std::uint64_t hdr[3] = {nextTxid_++, tupleId,
                            static_cast<std::uint64_t>(field)};
    pool_->txWriteNoUndo(tid, node + kWalTxid, hdr, sizeof(hdr));
    std::uint8_t before[kFieldBytes];
    mem_.read(tid, field_addr, before, kFieldBytes);
    pool_->txWriteNoUndo(tid, node + kWalBefore, before, kFieldBytes);
    auto c = static_cast<std::size_t>(tid) % clients_;
    Addr head = mem_.read64(tid, walHeadSlot_[c]);
    pool_->txWriteNoUndo(tid, node + kWalNext, &head, 8);
    pool_->txWriteNoUndo(tid, walHeadSlot_[c], &node, 8);
    // Then the in-place tuple update.
    pool_->txWriteNoUndo(tid, field_addr, value, kFieldBytes);
    pool_->txCommit(tid);
}

void
NStore::readTx(int tid, std::uint64_t tupleId, std::size_t field,
               void *value)
{
    panic_if(field >= kFields, "field out of range");
    mem_.read(tid, tupleAddr(tupleId) + 8 + field * kFieldBytes, value,
              kFieldBytes);
}

void
NStore::readRecord(int tid, std::uint64_t tupleId, void *record)
{
    mem_.read(tid, tupleAddr(tupleId), record, kTupleBytes);
}

std::size_t
NStore::walChainLength(int tid)
{
    auto c = static_cast<std::size_t>(tid) % clients_;
    std::size_t n = 0;
    Addr node = mem_.read64(tid, walHeadSlot_[c]);
    while (node != 0 && n <= walSlots_[c].size()) {
        n++;
        node = mem_.read64(tid, node + kWalNext);
    }
    return n;
}

//
// YCSB driver
//

NStoreWorkload::NStoreWorkload(MemorySystem &mem,
                               std::shared_ptr<NStore> store, int tid,
                               Params params)
    : mem_(mem),
      store_(std::move(store)),
      tid_(tid),
      params_(params),
      rng_(0xdb + static_cast<std::uint64_t>(tid)),
      keys_(store_->tuples(), params.hotTupleFrac, params.hotOpFrac,
            0x9999 + static_cast<std::uint64_t>(tid))
{}

const char *
NStoreWorkload::mixName(Mix mix)
{
    switch (mix) {
      case Mix::UpdateHeavy: return "update-heavy";
      case Mix::Balanced:    return "balanced";
      case Mix::ReadHeavy:   return "read-heavy";
    }
    return "?";
}

double
NStoreWorkload::updateFraction(Mix mix)
{
    switch (mix) {
      case Mix::UpdateHeavy: return 0.9;
      case Mix::Balanced:    return 0.5;
      case Mix::ReadHeavy:   return 0.1;
    }
    return 0.5;
}

std::string
NStoreWorkload::name() const
{
    return std::string("nstore-") + mixName(params_.mix) + "-" +
        std::to_string(tid_);
}

bool
NStoreWorkload::step()
{
    std::uint8_t field[NStore::kFieldBytes];
    double update_frac = updateFraction(params_.mix);
    std::size_t end =
        std::min(done_ + params_.sliceOps, params_.txPerClient);
    for (; done_ < end; done_++) {
        std::uint64_t tuple = keys_.next();
        if (rng_.nextBool(update_frac)) {
            std::memset(field, static_cast<int>(done_ & 0xff),
                        sizeof(field));
            store_->updateTx(tid_, tuple,
                             rng_.nextBounded(NStore::kFields), field);
        } else {
            store_->readTx(tid_, tuple,
                           rng_.nextBounded(NStore::kFields), field);
        }
    }
    return done_ < params_.txPerClient;
}

}  // namespace tvarak
