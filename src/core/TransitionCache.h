//===- core/TransitionCache.h - Memoized labeling transitions -------------===//
//
// Part of the odburg project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The transition cache is the fast path of the on-demand automaton: a
/// hash map from (operator, child state ids, dynamic-cost outcomes) to the
/// resulting state. Keys are variable-length little arrays of 32-bit words
/// packed as [header | children… | outcomes…]; they are interned in an
/// arena so a slot is just {key pointer, state}.
///
/// The map is striped into shards keyed by the transition hash. Writers
/// (insert, grow) serialize on a per-shard mutex; readers are lock-free.
/// Each shard is a seqlock: writers bump an atomic sequence counter to odd
/// before mutating and back to even after, and a reader that observes a
/// sequence change across its probe retries, so it never trusts a torn
/// view. Slot fields are relaxed atomics with a release-published key
/// pointer, which makes the racing accesses well-defined (and TSan-clean)
/// and guarantees a reader that sees a key also sees its hash, value and
/// interned words. Grown slot arrays are retired, not freed, so a reader
/// still probing a superseded array only ever reads valid (slightly stale)
/// memory; the geometric growth bounds retired memory by the live array.
///
/// The warm labeling path therefore touches no mutex at all: one hash, one
/// acquire load of the sequence counter, a short probe, and one validating
/// load. Writers are rare after warm-up, so retries are, too.
///
/// Insert is insert-if-absent: when two threads race on the same miss they
/// compute the same canonical state (the state table dedups contents), and
/// the second insert finds the key already present and drops out. A
/// lock-free lookup may spuriously miss a key that a racing writer is just
/// publishing; the caller then recomputes the same canonical state and the
/// insert dedups, so misses are a throughput detail, never an error.
///
//===----------------------------------------------------------------------===//

#ifndef ODBURG_CORE_TRANSITIONCACHE_H
#define ODBURG_CORE_TRANSITIONCACHE_H

#include "core/State.h"
#include "support/Arena.h"
#include "support/Hashing.h"

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace odburg {

/// Hash map (op, child states, dyn outcomes) -> StateId; sharded, with
/// mutex-serialized writers and lock-free seqlock readers.
class TransitionCache {
public:
  static constexpr unsigned NumShards = 64;

  TransitionCache();

  TransitionCache(const TransitionCache &) = delete;
  TransitionCache &operator=(const TransitionCache &) = delete;

  /// Packs a key header: operator and the two length fields.
  static std::uint32_t packHeader(OperatorId Op, unsigned NumChildren,
                                  unsigned NumDyn) {
    return static_cast<std::uint32_t>(Op) | (NumChildren << 16) |
           (NumDyn << 24);
  }

  /// Hash of a packed key; exposed so tests can steer keys onto one shard
  /// (shard index is hash & (NumShards - 1)).
  static std::uint64_t hashKey(const std::uint32_t *Key, unsigned Words) {
    return hashRange(Key, Key + Words);
  }

  /// Looks up \p Key (\p Words 32-bit words, first is the header).
  /// Returns InvalidState on miss. Lock-free: retries the probe when a
  /// writer's sequence bump indicates a possibly torn read.
  StateId lookup(const std::uint32_t *Key, unsigned Words) const {
    return lookupHashed(Key, Words, hashKey(Key, Words));
  }

  /// As lookup(), with the key's hashKey() value precomputed — the
  /// automaton hashes a key once and reuses the hash for the insert that
  /// follows a miss.
  StateId lookupHashed(const std::uint32_t *Key, unsigned Words,
                       std::uint64_t H) const {
    const Shard &Sh = Shards[H & (NumShards - 1)];
    for (unsigned Spins = 0;; ++Spins) {
      std::uint32_t Seq = Sh.Seq.load(std::memory_order_acquire);
      if (Seq & 1) {
        // A writer is mid-mutation; wait it out.
        if (Spins > 64)
          std::this_thread::yield();
        continue;
      }
      const SlotArray *T = Sh.Current.load(std::memory_order_acquire);
      std::size_t Mask = T->Mask;
      std::size_t Idx = (H >> 8) & Mask;
      StateId Result = InvalidState;
      for (;;) {
        const Slot &S = T->Slots[Idx];
        const std::uint32_t *K = S.Key.load(std::memory_order_acquire);
        if (!K)
          break;
        if (S.Hash.load(std::memory_order_relaxed) == H &&
            keyEquals(K, Key, Words)) {
          Result = S.Value.load(std::memory_order_relaxed);
          break;
        }
        Idx = (Idx + 1) & Mask;
      }
      if (Sh.Seq.load(std::memory_order_acquire) == Seq)
        return Result;
      // Torn read: a writer published during the probe; retry.
    }
  }

  /// Inserts \p Key if absent. A concurrent insert of the same key wins
  /// harmlessly: both map to the same canonical state.
  void insert(const std::uint32_t *Key, unsigned Words, StateId Value) {
    insertHashed(Key, Words, hashKey(Key, Words), Value);
  }

  /// As insert(), with the key's hashKey() value precomputed.
  void insertHashed(const std::uint32_t *Key, unsigned Words, std::uint64_t H,
                    StateId Value);

  /// Enumerates every memoized transition as (key words, word count,
  /// value), shard by shard under the shard's writer mutex — lock-free
  /// readers are unaffected, concurrent writers briefly serialize. The
  /// word count is recovered from the packed header (1 + children + dyn
  /// outcomes). Intended for quiescent snapshotting (the warm-snapshot
  /// dump in registry/WarmSnapshot.h); entries inserted concurrently with
  /// the walk may or may not be seen.
  template <typename Fn> void forEach(Fn &&Visit) const {
    for (const Shard &Sh : Shards) {
      std::lock_guard<std::mutex> Lock(Sh.M);
      const SlotArray *T = Sh.Current.load(std::memory_order_relaxed);
      for (std::size_t I = 0; I <= T->Mask; ++I) {
        const std::uint32_t *K = T->Slots[I].Key.load(std::memory_order_relaxed);
        if (!K)
          continue;
        Visit(K, keyWords(K[0]),
              T->Slots[I].Value.load(std::memory_order_relaxed));
      }
    }
  }

  /// Word count of a key whose header word is \p Header.
  static unsigned keyWords(std::uint32_t Header) {
    return 1 + ((Header >> 16) & 0xFF) + (Header >> 24);
  }

  /// Number of memoized transitions (sums the shards).
  std::size_t size() const;

  /// Approximate heap+arena footprint in bytes, including retired slot
  /// arrays kept alive for lock-free readers.
  std::size_t memoryBytes() const;

private:
  /// One table entry. Hash and Value are stored before Key is
  /// release-published, so a reader that acquires a non-null Key sees the
  /// complete slot (and the interned key words behind it).
  struct Slot {
    std::atomic<const std::uint32_t *> Key{nullptr};
    std::atomic<std::uint64_t> Hash{0};
    std::atomic<StateId> Value{InvalidState};
  };

  /// One open-addressed probe array. Arrays are only ever superseded,
  /// never mutated after retirement.
  struct SlotArray {
    explicit SlotArray(std::size_t N) : Slots(new Slot[N]), Mask(N - 1) {}
    std::unique_ptr<Slot[]> Slots;
    std::size_t Mask;
  };

  struct alignas(64) Shard {
    mutable std::mutex M; // Serializes writers only.
    std::atomic<std::uint32_t> Seq{0};
    std::atomic<const SlotArray *> Current{nullptr};
    /// Owns every array ever published (including Current); superseded
    /// arrays stay alive so in-flight lock-free readers never touch freed
    /// memory.
    std::vector<std::unique_ptr<SlotArray>> Arrays;
    std::size_t Count = 0;
    Arena KeyArena;
  };

  static bool keyEquals(const std::uint32_t *A, const std::uint32_t *B,
                        unsigned Words) {
    for (unsigned I = 0; I < Words; ++I)
      if (A[I] != B[I])
        return false;
    return true;
  }

  static const SlotArray *growShard(Shard &Sh);

  std::array<Shard, NumShards> Shards;
};

} // namespace odburg

#endif // ODBURG_CORE_TRANSITIONCACHE_H
