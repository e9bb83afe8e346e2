#pragma once

#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

namespace tsb::util {

/// A set of process ids in [0, 64), stored as one machine word.
///
/// The covering/valency machinery manipulates sets of processes constantly
/// (P, Q = P - R, R u {q}, ...); a value-type bitset keeps that free of
/// allocation and makes set identities in the proofs read literally in code.
class ProcSet {
 public:
  constexpr ProcSet() = default;
  constexpr explicit ProcSet(std::uint64_t bits) : bits_(bits) {}

  /// The set {0, 1, ..., n-1}.
  static constexpr ProcSet first_n(int n) {
    return ProcSet(n >= 64 ? ~0ull : ((1ull << n) - 1ull));
  }
  static constexpr ProcSet single(int p) { return ProcSet(1ull << p); }
  static constexpr ProcSet empty() { return ProcSet(); }

  constexpr bool contains(int p) const { return (bits_ >> p) & 1ull; }
  constexpr bool is_empty() const { return bits_ == 0; }
  constexpr int size() const { return __builtin_popcountll(bits_); }
  constexpr std::uint64_t bits() const { return bits_; }

  constexpr ProcSet with(int p) const { return ProcSet(bits_ | (1ull << p)); }
  constexpr ProcSet without(int p) const {
    return ProcSet(bits_ & ~(1ull << p));
  }

  constexpr ProcSet operator|(ProcSet o) const {
    return ProcSet(bits_ | o.bits_);
  }
  constexpr ProcSet operator&(ProcSet o) const {
    return ProcSet(bits_ & o.bits_);
  }
  constexpr ProcSet operator-(ProcSet o) const {
    return ProcSet(bits_ & ~o.bits_);
  }
  constexpr bool operator==(const ProcSet&) const = default;

  constexpr bool subset_of(ProcSet o) const {
    return (bits_ & ~o.bits_) == 0;
  }

  /// Smallest member; set must be non-empty.
  int min() const {
    assert(bits_ != 0);
    return __builtin_ctzll(bits_);
  }

  std::vector<int> to_vector() const {
    std::vector<int> out;
    out.reserve(static_cast<std::size_t>(size()));
    for (std::uint64_t b = bits_; b != 0; b &= b - 1) {
      out.push_back(__builtin_ctzll(b));
    }
    return out;
  }

  std::string to_string() const {
    std::string s = "{";
    bool first = true;
    for (int p : to_vector()) {
      if (!first) s += ",";
      s += 'p' + std::to_string(p);
      first = false;
    }
    return s + "}";
  }

  /// Iteration support: for (int p : set.to_vector()) is the common idiom;
  /// for hot loops use this manual form to avoid the vector.
  template <typename F>
  void for_each(F&& f) const {
    for (std::uint64_t b = bits_; b != 0; b &= b - 1) {
      f(__builtin_ctzll(b));
    }
  }

 private:
  std::uint64_t bits_ = 0;
};

}  // namespace tsb::util
