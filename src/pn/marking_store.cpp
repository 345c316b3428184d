#include "pn/marking_store.hpp"

#include "exec/chunk_pager.hpp"

#include <algorithm>

namespace fcqss::pn {

namespace {

constexpr std::size_t initial_table_capacity = 64;
constexpr std::size_t target_chunk_bytes = std::size_t{1} << 18; // 256 KiB

std::uint64_t splitmix64(std::uint64_t x) noexcept
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

} // namespace

marking_store::marking_store(std::size_t width)
    : marking_store(width, nullptr)
{
}

marking_store::marking_store(std::size_t width,
                             std::shared_ptr<exec::chunk_pager> pager)
    : width_(width),
      states_per_chunk_(width == 0
                            ? std::size_t{1} << 16
                            : std::max<std::size_t>(1, target_chunk_bytes /
                                                           (width * sizeof(std::int64_t)))),
      pager_(std::move(pager)),
      table_(initial_table_capacity, invalid_state),
      table_mask_(initial_table_capacity - 1)
{
}

marking_store::~marking_store() = default;
marking_store::marking_store(marking_store&&) noexcept = default;
marking_store& marking_store::operator=(marking_store&&) noexcept = default;

std::uint64_t marking_store::component_mix(std::size_t place, std::int64_t count) noexcept
{
    return splitmix64(static_cast<std::uint64_t>(place) * 0x9e3779b97f4a7c15ULL ^
                      static_cast<std::uint64_t>(count));
}

std::uint64_t marking_store::hash_tokens(const std::int64_t* tokens,
                                         std::size_t count) noexcept
{
    std::uint64_t hash = 0x2545f4914f6cdd1dULL ^ count;
    for (std::size_t i = 0; i < count; ++i) {
        hash ^= component_mix(i, tokens[i]);
    }
    return hash;
}

state_id marking_store::find(const std::int64_t* candidate,
                             std::uint64_t hash) const noexcept
{
    for (std::size_t slot = hash & table_mask_;; slot = (slot + 1) & table_mask_) {
        const state_id id = table_[slot];
        if (id == invalid_state) {
            return invalid_state;
        }
        if (hashes_[id] == hash && equal_at(id, candidate)) {
            return id;
        }
    }
}

void marking_store::allocate_chunk()
{
    if (pager_ != nullptr) {
        // Keep exactly the bump chunk being filled pinned: the frontier of
        // writes (and the densest probe target) stays resident whatever the
        // budget does to colder chunks.
        if (!pager_chunk_ids_.empty()) {
            pager_->unpin(pager_chunk_ids_.back());
        }
        const std::size_t bytes =
            states_per_chunk_ * width_ * sizeof(std::int64_t);
        const auto [id, data] = pager_->allocate(bytes);
        pager_->pin(id);
        pager_chunk_ids_.push_back(id);
        chunk_rows_.push_back(static_cast<std::int64_t*>(data));
    } else {
        owned_chunks_.emplace_back(new std::int64_t[states_per_chunk_ * width_]);
        chunk_rows_.push_back(owned_chunks_.back().get());
    }
}

void marking_store::rebuild_table(std::size_t capacity)
{
    ++stats_.resizes;
    table_.assign(capacity, invalid_state);
    table_mask_ = capacity - 1;
    for (state_id id = 0; id < static_cast<state_id>(size()); ++id) {
        std::size_t slot = hashes_[id] & table_mask_;
        while (table_[slot] != invalid_state) {
            slot = (slot + 1) & table_mask_;
        }
        table_[slot] = id;
    }
}

std::size_t marking_store::arena_bytes() const noexcept
{
    return chunk_rows_.size() * states_per_chunk_ * width_ * sizeof(std::int64_t);
}

std::size_t marking_store::memory_bytes() const noexcept
{
    return arena_bytes() + hashes_.size() * sizeof(std::uint64_t) +
           table_.size() * sizeof(state_id);
}

} // namespace fcqss::pn
