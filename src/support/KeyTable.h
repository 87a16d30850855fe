//===- support/KeyTable.h - Flat table of byte-string keys ------*- C++ -*-===//
//
// Part of the pushpull project: an executable semantics for the PUSH/PULL
// model of transactions (Koskinen & Parkinson, PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An open-addressing table that numbers byte-string keys densely: the
/// first key inserted gets index 0, the next fresh one 1, and so on.
/// Callers keep per-key data in plain arrays indexed by that number (the
/// explorer's visited depths and sleep sets, its oracle verdicts), so the
/// table itself stores no values.
///
/// Layout: a power-of-two slot array of (64-bit hash, dense index) pairs,
/// probed linearly and grown at 3/4 load by reinserting the stored hashes,
/// plus a dense array of key views whose bytes are copied into an Arena
/// the table owns.  A lookup that finds its key copies nothing, so callers
/// can render keys into one reused buffer and probe without allocating;
/// only a fresh key costs a bump-pointer copy (counted in
/// memstats::ArenaBytes), and slots are 16 bytes with no per-entry node.
/// Indices are stable for the table's lifetime: growth moves slots, never
/// renumbers keys.
///
/// \p HashFn maps a std::string_view to an integer; it is a type
/// parameter so tests can force collisions.  Not thread-safe.
///
//===----------------------------------------------------------------------===//

#ifndef PUSHPULL_SUPPORT_KEYTABLE_H
#define PUSHPULL_SUPPORT_KEYTABLE_H

#include "support/Arena.h"

#include <cassert>
#include <cstdint>
#include <cstring>
#include <functional>
#include <string_view>
#include <vector>

namespace pushpull {

template <typename HashFn = std::hash<std::string_view>> class KeyTable {
public:
  struct Insert {
    uint32_t Index; ///< Dense index of the key.
    bool Fresh;     ///< The key was not present before this call.
  };

  /// Find \p Key or insert it under the next dense index, copying its
  /// bytes into the table's arena.
  Insert insert(std::string_view Key) {
    const uint64_t H = static_cast<uint64_t>(HashFn{}(Key));
    if ((Keys.size() + 1) * 4 > Slots.size() * 3)
      grow();
    const size_t Mask = Slots.size() - 1;
    for (size_t I = H & Mask;; I = (I + 1) & Mask) {
      Slot &S = Slots[I];
      if (S.Index == Free) {
        assert(Keys.size() < Free && "key table full");
        S.Hash = H;
        S.Index = static_cast<uint32_t>(Keys.size());
        char *Copy = static_cast<char *>(Bytes.allocate(Key.size(), 1));
        if (!Key.empty())
          std::memcpy(Copy, Key.data(), Key.size());
        Keys.push_back(std::string_view(Copy, Key.size()));
        return {S.Index, true};
      }
      if (S.Hash == H && Keys[S.Index] == Key)
        return {S.Index, false};
    }
  }

  size_t size() const { return Keys.size(); }

  /// Forget every key and release the arena.
  void clear() {
    Slots.clear();
    Keys.clear();
    Bytes.rewind(Arena::Mark{});
  }

private:
  /// The index of an unused slot.
  static constexpr uint32_t Free = UINT32_MAX;

  struct Slot {
    uint64_t Hash = 0;
    uint32_t Index = Free;
  };

  void grow() {
    std::vector<Slot> Old = std::move(Slots);
    Slots.assign(Old.empty() ? 64 : Old.size() * 2, Slot());
    const size_t Mask = Slots.size() - 1;
    for (const Slot &S : Old) {
      if (S.Index == Free)
        continue;
      size_t I = S.Hash & Mask;
      while (Slots[I].Index != Free)
        I = (I + 1) & Mask;
      Slots[I] = S;
    }
  }

  std::vector<Slot> Slots;
  std::vector<std::string_view> Keys;
  Arena Bytes;
};

} // namespace pushpull

#endif // PUSHPULL_SUPPORT_KEYTABLE_H
