#ifndef SBRL_COMMON_STRING_UTIL_H_
#define SBRL_COMMON_STRING_UTIL_H_

#include <string>
#include <vector>

namespace sbrl {

/// Splits `text` on `sep`, keeping empty fields. "a,,b" -> {"a", "", "b"}.
std::vector<std::string> Split(const std::string& text, char sep);

/// Removes leading and trailing ASCII whitespace.
std::string StripWhitespace(const std::string& text);

/// Formats `value` with `digits` digits after the decimal point.
std::string FormatDouble(double value, int digits);

/// Renders "mean ±std" with three decimals, the layout the paper's tables
/// use for every metric cell.
std::string FormatMeanStd(double mean, double std_dev);

/// True if `text` starts with `prefix`.
bool StartsWith(const std::string& text, const std::string& prefix);

}  // namespace sbrl

#endif  // SBRL_COMMON_STRING_UTIL_H_
