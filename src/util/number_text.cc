#include "util/number_text.hh"

#include <charconv>
#include <cmath>

namespace bwwall {

void
appendDoubleText(std::string &out, double value,
                 std::string_view non_finite)
{
    if (!std::isfinite(value)) {
        out += non_finite;
        return;
    }
    // "-2.2250738585072014e-308" is the longest: 24 characters.
    char buffer[32];
    const std::to_chars_result result =
        std::to_chars(buffer, buffer + sizeof(buffer), value,
                      std::chars_format::general, 17);
    out.append(buffer, result.ptr);
}

} // namespace bwwall
