/**
 * @file
 * The one JSON string escaper behind every hand-written JSON writer
 * (bench results, tvarak-fault reports, tvarak-lint SARIF).
 */

#pragma once

#include <string>
#include <string_view>

namespace tvarak {

/** @p s escaped for use between JSON double quotes: quote, backslash
 *  and control characters are escaped, everything else is copied. */
std::string jsonEscape(std::string_view s);

}  // namespace tvarak
