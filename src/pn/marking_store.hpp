// fcqss — pn/marking_store.hpp
// Arena-interned marking storage for explicit-state exploration.  Every
// distinct marking is stored exactly once as a contiguous span of token
// counts inside a chunked bump arena and addressed by a dense 32-bit
// state_id; a separate open-addressing hash set (keyed by precomputed
// 64-bit hashes) deduplicates candidates without per-state heap nodes.
// Spans handed out by tokens() stay valid for the life of the store —
// the arena grows by whole fixed-capacity chunks, never by reallocation.
//
// External memory: a store constructed with an exec::chunk_pager draws its
// arena chunks from the pager instead of the heap.  Under a --max-bytes
// budget the pager backs chunks with an mmap'd spill file and evicts cold
// ones (the bump chunk being filled stays pinned); reads of evicted rows
// refault transparently, so correctness is unaffected.
#ifndef FCQSS_PN_MARKING_STORE_HPP
#define FCQSS_PN_MARKING_STORE_HPP

#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <utility>
#include <vector>

namespace fcqss::exec {
class chunk_pager;
}

namespace fcqss::pn {

/// Dense index of an interned marking within a marking_store.
using state_id = std::uint32_t;

/// Sentinel for "no such state".
inline constexpr state_id invalid_state = static_cast<state_id>(-1);

/// Running tallies of one store's dedup work, maintained unconditionally
/// (plain increments: a store has one owner, so no atomics are needed) and
/// flushed into the global obs counters by the engine when telemetry is on.
struct marking_store_stats {
    std::uint64_t probes = 0;         ///< hash-table slots inspected by interns
    std::uint64_t dedup_hits = 0;     ///< interns that found an existing marking
    std::uint64_t inserts = 0;        ///< markings newly interned
    std::uint64_t budget_rejects = 0; ///< interns refused by max_states
    std::uint64_t resizes = 0;        ///< open-addressing table rebuilds
};

class marking_store {
public:
    /// A store for markings of `width` places, arena on the heap.
    explicit marking_store(std::size_t width);

    /// A store whose arena chunks come from `pager`, which holds them to its
    /// resident budget.  A null pager is equivalent to the plain constructor.
    marking_store(std::size_t width, std::shared_ptr<exec::chunk_pager> pager);

    ~marking_store();
    marking_store(marking_store&&) noexcept;
    marking_store& operator=(marking_store&&) noexcept;

    /// Number of token counts per marking (|P| of the net).
    [[nodiscard]] std::size_t width() const noexcept { return width_; }
    /// Number of distinct markings interned so far.
    [[nodiscard]] std::size_t size() const noexcept { return hashes_.size(); }

    /// 64-bit hash of a token vector.  Zobrist-style: the hash is the XOR of
    /// a per-(place, count) mix, so callers that change a few places can
    /// update a running hash incrementally with component_mix() instead of
    /// rehashing the whole vector.
    [[nodiscard]] static std::uint64_t hash_tokens(const std::int64_t* tokens,
                                                   std::size_t count) noexcept;

    /// The contribution of (place index, token count) to hash_tokens; XOR
    /// out the old count's mix and XOR in the new one to update a hash.
    [[nodiscard]] static std::uint64_t component_mix(std::size_t place,
                                                     std::int64_t count) noexcept;

    /// Interns `tokens` (length width()) whose hash_tokens value is `hash`.
    /// Returns the state id and whether the marking was newly inserted.
    /// When inserting would grow the store past `max_states`, returns
    /// {invalid_state, false} and leaves the store untouched.
    std::pair<state_id, bool>
    intern(const std::int64_t* tokens, std::uint64_t hash,
           std::size_t max_states = static_cast<std::size_t>(-1))
    {
        std::size_t slot = hash & table_mask_;
        for (;; slot = (slot + 1) & table_mask_) {
            ++stats_.probes;
            const state_id id = table_[slot];
            if (id == invalid_state) {
                break;
            }
            if (hashes_[id] == hash && equal_at(id, tokens)) {
                ++stats_.dedup_hits;
                return {id, false};
            }
        }
        if (size() >= max_states) {
            ++stats_.budget_rejects;
            return {invalid_state, false};
        }
        ++stats_.inserts;
        const state_id id = static_cast<state_id>(size());
        if (id % states_per_chunk_ == 0) {
            allocate_chunk();
        }
        std::memcpy(chunk_rows_[id / states_per_chunk_] + (id % states_per_chunk_) * width_,
                    tokens, width_ * sizeof(std::int64_t));
        hashes_.push_back(hash);
        table_[slot] = id;
        // Keep the load factor below ~0.7 (power-of-two capacity, linear
        // probes).
        if (size() * 10 >= (table_mask_ + 1) * 7) {
            rebuild_table((table_mask_ + 1) * 2);
        }
        return {id, true};
    }

    /// Looks `tokens` up without inserting; invalid_state when absent.
    [[nodiscard]] state_id find(const std::int64_t* tokens,
                                std::uint64_t hash) const noexcept;

    /// The interned token span of `id`.  Stable across later interns.
    /// Reads evicted rows straight through the mapping (the pages refault).
    [[nodiscard]] std::span<const std::int64_t> tokens(state_id id) const noexcept
    {
        return {chunk_rows_[id / states_per_chunk_] + (id % states_per_chunk_) * width_,
                width_};
    }

    /// The precomputed hash of `id` (as passed to intern()).
    [[nodiscard]] std::uint64_t stored_hash(state_id id) const noexcept
    {
        return hashes_[id];
    }

    // -- External-memory support --------------------------------------------

    /// The pager backing this store's arena, or null.
    [[nodiscard]] const std::shared_ptr<exec::chunk_pager>& pager() const noexcept
    {
        return pager_;
    }

    /// Arena bytes only (chunks, at full chunk granularity), excluding the
    /// hash table — the denominator of a spill ratio.
    [[nodiscard]] std::size_t arena_bytes() const noexcept;

    /// Approximate arena + table footprint, for telemetry and benches.
    [[nodiscard]] std::size_t memory_bytes() const noexcept;

    /// Arena chunks allocated so far.
    [[nodiscard]] std::size_t chunk_count() const noexcept { return chunk_rows_.size(); }

    /// Dedup-work tallies since construction (see marking_store_stats).
    [[nodiscard]] const marking_store_stats& stats() const noexcept { return stats_; }

private:
    [[nodiscard]] bool equal_at(state_id id, const std::int64_t* candidate) const noexcept
    {
        return width_ == 0 ||
               std::memcmp(tokens(id).data(), candidate, width_ * sizeof(std::int64_t)) == 0;
    }
    void rebuild_table(std::size_t capacity);
    void allocate_chunk();

    std::size_t width_;
    std::size_t states_per_chunk_;
    /// Bump arena: fixed-capacity chunks of states_per_chunk_ * width_
    /// counts, allocated whole so spans never move.  Rows are addressed
    /// through chunk_rows_; the memory is owned either by owned_chunks_
    /// (heap mode) or by the pager.
    std::vector<std::int64_t*> chunk_rows_;
    std::vector<std::unique_ptr<std::int64_t[]>> owned_chunks_;
    std::shared_ptr<exec::chunk_pager> pager_;
    std::vector<std::uint32_t> pager_chunk_ids_;
    /// Per-state precomputed hashes, indexed by state_id.
    std::vector<std::uint64_t> hashes_;
    /// Open-addressing table of state ids (invalid_state = empty slot);
    /// capacity is a power of two, rebuilt from hashes_ on growth.
    std::vector<state_id> table_;
    std::size_t table_mask_ = 0;
    marking_store_stats stats_{};
};

} // namespace fcqss::pn

#endif // FCQSS_PN_MARKING_STORE_HPP
