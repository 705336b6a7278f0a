#include "serve/wire.hpp"

#include <cerrno>
#include <cstring>

#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

namespace mcan::serve {
namespace {

bool write_all(int fd, const char* data, std::size_t len) {
  while (len > 0) {
    // MSG_NOSIGNAL: a peer that went away must surface as EPIPE, not kill
    // the daemon with SIGPIPE.
    const ssize_t n = ::send(fd, data, len, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

bool read_all(int fd, char* data, std::size_t len) {
  while (len > 0) {
    const ssize_t n = ::recv(fd, data, len, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) return false;  // EOF mid-frame
    data += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

bool send_frame(int fd, std::string_view payload) {
  if (payload.size() > kMaxFrame) return false;
  const auto len = static_cast<std::uint32_t>(payload.size());
  const char header[4] = {
      static_cast<char>(len >> 24), static_cast<char>(len >> 16),
      static_cast<char>(len >> 8), static_cast<char>(len)};
  return write_all(fd, header, sizeof(header)) &&
         write_all(fd, payload.data(), payload.size());
}

std::optional<std::string> recv_frame(int fd) {
  char header[4];
  if (!read_all(fd, header, sizeof(header))) return std::nullopt;
  std::uint32_t len = 0;
  for (const char c : header) {
    len = (len << 8) | static_cast<unsigned char>(c);
  }
  if (len > kMaxFrame) return std::nullopt;
  std::string payload(len, '\0');
  if (len > 0 && !read_all(fd, payload.data(), len)) return std::nullopt;
  return payload;
}

const JsonValue* JsonValue::find(std::string_view key) const {
  if (kind != Kind::Object) return nullptr;
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::string_view JsonValue::get_string(std::string_view fallback) const {
  return kind == Kind::String ? std::string_view{string} : fallback;
}

std::uint64_t JsonValue::get_u64(std::uint64_t fallback) const {
  if (kind != Kind::Number) return fallback;
  if (has_u64) return u64;
  return number >= 0 ? static_cast<std::uint64_t>(number) : fallback;
}

double JsonValue::get_number(double fallback) const {
  return kind == Kind::Number ? number : fallback;
}

bool JsonValue::get_bool(bool fallback) const {
  return kind == Kind::Bool ? boolean : fallback;
}

namespace {

/// Recursive-descent protocol JSON parser.  Depth-limited: protocol
/// messages are shallow, and the limit keeps hostile nesting from
/// exhausting the stack.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  std::optional<JsonValue> run() {
    auto v = value(0);
    if (!v) return std::nullopt;
    skip_ws();
    if (pos_ != text_.size()) return std::nullopt;
    return v;
  }

 private:
  static constexpr int kMaxDepth = 64;

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool consume(char c) {
    skip_ws();
    if (pos_ >= text_.size() || text_[pos_] != c) return false;
    ++pos_;
    return true;
  }

  bool literal(std::string_view word) {
    if (text_.size() - pos_ < word.size() ||
        text_.compare(pos_, word.size(), word) != 0) {
      return false;
    }
    pos_ += word.size();
    return true;
  }

  std::optional<JsonValue> value(int depth) {
    if (depth > kMaxDepth) return std::nullopt;
    skip_ws();
    if (pos_ >= text_.size()) return std::nullopt;
    JsonValue v;
    switch (text_[pos_]) {
      case '{': return object(depth);
      case '[': return array(depth);
      case '"': {
        v.kind = JsonValue::Kind::String;
        if (!string(v.string)) return std::nullopt;
        return v;
      }
      case 't':
        if (!literal("true")) return std::nullopt;
        v.kind = JsonValue::Kind::Bool;
        v.boolean = true;
        return v;
      case 'f':
        if (!literal("false")) return std::nullopt;
        v.kind = JsonValue::Kind::Bool;
        v.boolean = false;
        return v;
      case 'n':
        if (!literal("null")) return std::nullopt;
        v.kind = JsonValue::Kind::Null;
        return v;
      default: return number();
    }
  }

  std::optional<JsonValue> object(int depth) {
    if (!consume('{')) return std::nullopt;
    JsonValue v;
    v.kind = JsonValue::Kind::Object;
    skip_ws();
    if (consume('}')) return v;
    while (true) {
      skip_ws();
      std::string key;
      if (!string(key)) return std::nullopt;
      if (!consume(':')) return std::nullopt;
      auto member = value(depth + 1);
      if (!member) return std::nullopt;
      v.object.emplace_back(std::move(key), std::move(*member));
      if (consume(',')) continue;
      if (consume('}')) return v;
      return std::nullopt;
    }
  }

  std::optional<JsonValue> array(int depth) {
    if (!consume('[')) return std::nullopt;
    JsonValue v;
    v.kind = JsonValue::Kind::Array;
    skip_ws();
    if (consume(']')) return v;
    while (true) {
      auto item = value(depth + 1);
      if (!item) return std::nullopt;
      v.array.push_back(std::move(*item));
      if (consume(',')) continue;
      if (consume(']')) return v;
      return std::nullopt;
    }
  }

  bool string(std::string& out) {
    if (pos_ >= text_.size() || text_[pos_] != '"') return false;
    ++pos_;
    out.clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) return false;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (text_.size() - pos_ < 4) return false;
          unsigned cp = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            cp <<= 4;
            if (h >= '0' && h <= '9') {
              cp |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              cp |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              cp |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return false;
            }
          }
          // UTF-8 encode the BMP code point; the protocol's own emitter
          // only \u-escapes control characters, so no surrogate handling.
          if (cp < 0x80) {
            out += static_cast<char>(cp);
          } else if (cp < 0x800) {
            out += static_cast<char>(0xC0 | (cp >> 6));
            out += static_cast<char>(0x80 | (cp & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (cp >> 12));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (cp & 0x3F));
          }
          break;
        }
        default: return false;
      }
    }
    return false;  // unterminated
  }

  std::optional<JsonValue> number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    bool integral = true;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c >= '0' && c <= '9') {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        integral = false;
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) return std::nullopt;
    const std::string token{text_.substr(start, pos_ - start)};
    JsonValue v;
    v.kind = JsonValue::Kind::Number;
    char* end = nullptr;
    errno = 0;
    v.number = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size() || errno == ERANGE) {
      return std::nullopt;
    }
    if (integral && token[0] != '-') {
      errno = 0;
      const auto u = std::strtoull(token.c_str(), &end, 10);
      if (end == token.c_str() + token.size() && errno != ERANGE) {
        v.u64 = u;
        v.has_u64 = true;
      }
    }
    return v;
  }

  std::string_view text_;
  std::size_t pos_{0};
};

}  // namespace

std::optional<JsonValue> parse_json(std::string_view text) {
  return Parser{text}.run();
}

std::string extract_object(std::string_view doc, std::string_view key) {
  std::string needle{"\""};
  needle += key;
  needle += "\":";
  const auto at = doc.find(needle);
  if (at == std::string_view::npos) return {};
  std::size_t i = at + needle.size();
  while (i < doc.size() && (doc[i] == ' ' || doc[i] == '\t')) ++i;
  if (i >= doc.size() || doc[i] != '{') return {};
  const std::size_t start = i;
  int depth = 0;
  bool in_string = false;
  for (; i < doc.size(); ++i) {
    const char c = doc[i];
    if (in_string) {
      if (c == '\\') {
        ++i;  // skip the escaped character
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
    } else if (c == '{') {
      ++depth;
    } else if (c == '}') {
      if (--depth == 0) return std::string{doc.substr(start, i - start + 1)};
    }
  }
  return {};
}

}  // namespace mcan::serve
