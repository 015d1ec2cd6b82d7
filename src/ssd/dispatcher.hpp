/**
 * @file
 * Per-queue command dispatcher: assigns command ids and routes push-style
 * completions back to per-command callbacks. Shared by the kernel driver,
 * UserLib and the SPDK baseline.
 *
 * Every simulated command passes through here twice, so the dispatcher
 * is allocation-free in steady state: callbacks are move-only
 * InlineFunctions (captures up to sim::kEventCallbackInlineBytes stay
 * in place) kept in a flat open-addressed table keyed by cid, which
 * grows by doubling and otherwise never touches the heap.
 */

#ifndef BPD_SSD_DISPATCHER_HPP
#define BPD_SSD_DISPATCHER_HPP

#include <cstdint>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/inline_function.hpp"
#include "sim/logging.hpp"
#include "ssd/nvme.hpp"

namespace bpd::ssd {

class CommandDispatcher
{
  public:
    using CompletionFn = sim::InlineFunction<void(const Completion &),
                                             sim::kEventCallbackInlineBytes>;

    explicit CommandDispatcher(QueuePair &qp) : qp_(qp), table_(kMinSlots)
    {
        qp_.setCompletionHook(
            [this](const Completion &c) { complete(c); });
    }

    CommandDispatcher(const CommandDispatcher &) = delete;
    CommandDispatcher &operator=(const CommandDispatcher &) = delete;

    QueuePair &queue() { return qp_; }

    /**
     * Submit with a per-command completion callback.
     * @retval false when the SQ is full. @p fn is then left untouched,
     *         so the caller can retry with the same callback.
     *
     * The cid is consumed only once the queue accepts the command: a
     * refused submit must not burn an id, or the cid stream of a config
     * that hits SQ-full drifts from one that does not, poisoning
     * replay/digest comparisons between them.
     */
    bool
    submit(Command cmd, CompletionFn &&fn)
    {
        cmd.cid = nextCid_;
        if (!qp_.submit(cmd))
            return false;
        nextCid_++;
        insert(cmd.cid, std::move(fn));
        return true;
    }

    std::size_t outstanding() const { return count_; }

  private:
    /** Table slot; cid 0 marks it empty (cids start at 1). */
    struct Entry
    {
        std::uint64_t cid = 0;
        CompletionFn fn;
    };

    static constexpr std::size_t kMinSlots = 16;

    std::size_t mask() const { return table_.size() - 1; }

    void
    insert(std::uint64_t cid, CompletionFn &&fn)
    {
        // Load factor <= 1/2 keeps linear probes short; cids are
        // sequential, so cid & mask spreads them without hashing.
        if (2 * (count_ + 1) > table_.size())
            grow();
        std::size_t i = cid & mask();
        while (table_[i].cid != 0)
            i = (i + 1) & mask();
        table_[i].cid = cid;
        table_[i].fn = std::move(fn);
        count_++;
    }

    void
    grow()
    {
        std::vector<Entry> old = std::move(table_);
        table_ = std::vector<Entry>(2 * old.size());
        count_ = 0;
        for (Entry &e : old) {
            if (e.cid != 0)
                insert(e.cid, std::move(e.fn));
        }
    }

    void
    complete(const Completion &c)
    {
        std::size_t i = c.cid & mask();
        while (table_[i].cid != c.cid && table_[i].cid != 0)
            i = (i + 1) & mask();
        sim::panicIf(c.cid == 0 || table_[i].cid != c.cid,
                     "completion for unknown command id");
        // Take the callback out before it runs: it may submit, and a
        // submit may grow (and so move) the table.
        CompletionFn fn = std::move(table_[i].fn);
        erase(i);
        fn(c);
    }

    /** Backward-shift deletion: no tombstones, probes stay short. */
    void
    erase(std::size_t hole)
    {
        std::size_t j = hole;
        for (;;) {
            j = (j + 1) & mask();
            if (table_[j].cid == 0)
                break;
            const std::size_t home = table_[j].cid & mask();
            // Entry j may fill the hole only if the hole lies on its
            // probe path, i.e. cyclically within [home, j).
            if (((j - home) & mask()) >= ((j - hole) & mask())) {
                table_[hole].cid = table_[j].cid;
                table_[hole].fn = std::move(table_[j].fn);
                hole = j;
            }
        }
        table_[hole].cid = 0;
        table_[hole].fn.reset();
        count_--;
    }

    QueuePair &qp_;
    std::uint64_t nextCid_ = 1;
    std::vector<Entry> table_;
    std::size_t count_ = 0;
};

} // namespace bpd::ssd

#endif // BPD_SSD_DISPATCHER_HPP
