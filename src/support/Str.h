//===- support/Str.h - Small string helpers ---------------------*- C++ -*-===//
//
// Part of the pushpull project: an executable semantics for the PUSH/PULL
// model of transactions (Koskinen & Parkinson, PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Formatting helpers shared by the log/trace pretty-printers, and the
/// one whole-number reader every number taken from outside text goes
/// through: command-line values, scenario `key=value` options, replay
/// picks and program integer literals.
///
//===----------------------------------------------------------------------===//

#ifndef PUSHPULL_SUPPORT_STR_H
#define PUSHPULL_SUPPORT_STR_H

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace pushpull {

/// Join the elements of \p Parts with \p Sep.
std::string join(const std::vector<std::string> &Parts,
                 const std::string &Sep);

/// True iff \p S begins with \p Prefix.
bool startsWith(const std::string &S, const std::string &Prefix);

/// Split \p S on character \p Sep (no empty-trailing suppression).
std::vector<std::string> splitOn(const std::string &S, char Sep);

/// Read \p Text as a whole decimal number from \p Min to \p Max: one or
/// more ASCII digits and nothing else (no sign, space or suffix).  On any
/// other text, or a value outside the range (overflow included), returns
/// false and leaves \p Out alone.  Never throws or allocates.
bool readWhole(std::string_view Text, uint64_t Min, uint64_t Max,
               uint64_t &Out);

/// The diagnostic for a number readWhole refused:
/// "<What> needs a whole number from <Min> to <Max>, got '<Text>'".
std::string wholeNumberError(std::string_view What, uint64_t Min,
                             uint64_t Max, std::string_view Text);

} // namespace pushpull

#endif // PUSHPULL_SUPPORT_STR_H
