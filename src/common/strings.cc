#include "src/common/strings.h"

#include <cstdio>

namespace wdg {

std::string StrFormat(const char* fmt, ...) {
  // One vsnprintf into a stack buffer covers almost every call; only a
  // result that does not fit is formatted again, into a string of the size
  // the first pass reported.
  char buffer[256];
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  const int needed = std::vsnprintf(buffer, sizeof(buffer), fmt, args);
  va_end(args);
  std::string out;
  if (needed > 0 && static_cast<size_t>(needed) < sizeof(buffer)) {
    out.assign(buffer, static_cast<size_t>(needed));
  } else if (needed > 0) {
    out.resize(static_cast<size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

std::vector<std::string> StrSplit(std::string_view text, char delim) {
  std::vector<std::string> parts;
  size_t start = 0;
  while (true) {
    const size_t pos = text.find(delim, start);
    if (pos == std::string_view::npos) {
      parts.emplace_back(text.substr(start));
      return parts;
    }
    parts.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

std::string_view StrTrim(std::string_view text) {
  size_t begin = 0;
  size_t end = text.size();
  while (begin < end && (text[begin] == ' ' || text[begin] == '\t' || text[begin] == '\n')) {
    ++begin;
  }
  while (end > begin && (text[end - 1] == ' ' || text[end - 1] == '\t' || text[end - 1] == '\n')) {
    --end;
  }
  return text.substr(begin, end - begin);
}

bool StrStartsWith(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() && text.substr(0, prefix.size()) == prefix;
}

std::string JsonEscape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += StrFormat("\\u%04x", c);
        } else {
          out += c;
        }
        break;
    }
  }
  return out;
}

bool SitePatternMatches(std::string_view pattern, std::string_view site) {
  if (pattern == "*") {
    return true;
  }
  if (!pattern.empty() && pattern.back() == '*') {
    return StrStartsWith(site, pattern.substr(0, pattern.size() - 1));
  }
  return pattern == site;
}

}  // namespace wdg
