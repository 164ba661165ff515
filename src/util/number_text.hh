/**
 * @file
 * The one double-to-text formatter behind every number bwwall
 * writes: JSON bodies and cache keys, /metrics scrapes, and trace
 * exports.
 *
 * The text is exactly what printf("%.17g") prints in the C locale:
 * 17 significant digits, so every double round-trips, and every
 * integer-valued double below 1e17 (2^53 included) prints as a
 * plain integer.  It is built on std::to_chars, so it reads no
 * locale, builds no stream, and allocates nothing beyond the
 * caller's string growing.  Cache keys, and the cluster owner
 * every node picks for a key, hash and compare these bytes, so the
 * format must never change.
 */

#ifndef BWWALL_UTIL_NUMBER_TEXT_HH
#define BWWALL_UTIL_NUMBER_TEXT_HH

#include <string>
#include <string_view>

namespace bwwall {

/**
 * Appends @p value's "%.17g" text to @p out, or @p non_finite for
 * an infinity or a NaN.  Text formats such as JSON have no literal
 * for those, so each caller names its own stand-in ("null" for
 * JSON bodies and metrics, "0" for trace counters).
 */
void appendDoubleText(std::string &out, double value,
                      std::string_view non_finite);

} // namespace bwwall

#endif // BWWALL_UTIL_NUMBER_TEXT_HH
