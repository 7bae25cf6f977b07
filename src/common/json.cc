#include "common/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace fuxi {

namespace {

/// Recursive-descent JSON parser over a string_view.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<Json> Parse() {
    SkipWhitespace();
    Json value;
    FUXI_RETURN_IF_ERROR(ParseValue(&value));
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Error("trailing characters after JSON value");
    }
    return value;
  }

 private:
  Status Error(const std::string& what) {
    return Status::InvalidArgument("JSON parse error at offset " +
                                   std::to_string(pos_) + ": " + what);
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status ParseValue(Json* out) {
    if (++depth_ > Json::kMaxDepth) return Error("nesting too deep");
    Status s = ParseValueInner(out);
    --depth_;
    return s;
  }

  Status ParseValueInner(Json* out) {
    SkipWhitespace();
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    char c = text_[pos_];
    switch (c) {
      case '{':
        return ParseObject(out);
      case '[':
        return ParseArray(out);
      case '"': {
        std::string s;
        FUXI_RETURN_IF_ERROR(ParseString(&s));
        *out = Json(std::move(s));
        return Status::Ok();
      }
      case 't':
        if (text_.substr(pos_, 4) == "true") {
          pos_ += 4;
          *out = Json(true);
          return Status::Ok();
        }
        return Error("invalid literal");
      case 'f':
        if (text_.substr(pos_, 5) == "false") {
          pos_ += 5;
          *out = Json(false);
          return Status::Ok();
        }
        return Error("invalid literal");
      case 'n':
        if (text_.substr(pos_, 4) == "null") {
          pos_ += 4;
          *out = Json();
          return Status::Ok();
        }
        return Error("invalid literal");
      default:
        return ParseNumber(out);
    }
  }

  Status ParseObject(Json* out) {
    ++pos_;  // consume '{'
    Json::Object obj;
    SkipWhitespace();
    if (Consume('}')) {
      *out = Json(std::move(obj));
      return Status::Ok();
    }
    while (true) {
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Error("expected object key string");
      }
      std::string key;
      FUXI_RETURN_IF_ERROR(ParseString(&key));
      SkipWhitespace();
      if (!Consume(':')) return Error("expected ':'");
      Json value;
      FUXI_RETURN_IF_ERROR(ParseValue(&value));
      obj[std::move(key)] = std::move(value);
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume('}')) break;
      return Error("expected ',' or '}'");
    }
    *out = Json(std::move(obj));
    return Status::Ok();
  }

  Status ParseArray(Json* out) {
    ++pos_;  // consume '['
    Json::Array arr;
    SkipWhitespace();
    if (Consume(']')) {
      *out = Json(std::move(arr));
      return Status::Ok();
    }
    while (true) {
      Json value;
      FUXI_RETURN_IF_ERROR(ParseValue(&value));
      arr.push_back(std::move(value));
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume(']')) break;
      return Error("expected ',' or ']'");
    }
    *out = Json(std::move(arr));
    return Status::Ok();
  }

  Status ParseString(std::string* out) {
    ++pos_;  // consume '"'
    out->clear();
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return Status::Ok();
      if (c == '\\') {
        if (pos_ >= text_.size()) return Error("unterminated escape");
        char e = text_[pos_++];
        switch (e) {
          case '"':
            out->push_back('"');
            break;
          case '\\':
            out->push_back('\\');
            break;
          case '/':
            out->push_back('/');
            break;
          case 'b':
            out->push_back('\b');
            break;
          case 'f':
            out->push_back('\f');
            break;
          case 'n':
            out->push_back('\n');
            break;
          case 'r':
            out->push_back('\r');
            break;
          case 't':
            out->push_back('\t');
            break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return Error("short \\u escape");
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              char h = text_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') {
                code |= static_cast<unsigned>(h - '0');
              } else if (h >= 'a' && h <= 'f') {
                code |= static_cast<unsigned>(h - 'a' + 10);
              } else if (h >= 'A' && h <= 'F') {
                code |= static_cast<unsigned>(h - 'A' + 10);
              } else {
                return Error("invalid \\u escape");
              }
            }
            // UTF-8 encode (BMP only; surrogate pairs are rare in job
            // descriptions and are passed through as replacement chars).
            if (code < 0x80) {
              out->push_back(static_cast<char>(code));
            } else if (code < 0x800) {
              out->push_back(static_cast<char>(0xC0 | (code >> 6)));
              out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
            } else {
              out->push_back(static_cast<char>(0xE0 | (code >> 12)));
              out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
              out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
            }
            break;
          }
          default:
            return Error("invalid escape character");
        }
      } else {
        out->push_back(c);
      }
    }
    return Error("unterminated string");
  }

  Status ParseNumber(Json* out) {
    size_t start = pos_;
    if (Consume('-')) {
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return Error("expected value");
    std::string num(text_.substr(start, pos_ - start));
    char* end = nullptr;
    double d = std::strtod(num.c_str(), &end);
    if (end != num.c_str() + num.size()) return Error("invalid number");
    *out = Json(d);
    return Status::Ok();
  }

  std::string_view text_;
  size_t pos_ = 0;
  int depth_ = 0;
};

void EscapeString(const std::string& in, std::string* out) {
  out->push_back('"');
  for (char c : in) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\r':
        *out += "\\r";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

void AppendNumber(double d, std::string* out) {
  if (std::isfinite(d) && d == std::floor(d) && std::fabs(d) < 9e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(d));
    *out += buf;
  } else {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", d);
    *out += buf;
  }
}

}  // namespace

std::string Json::GetString(const std::string& key,
                            const std::string& fallback) const {
  const Json* v = Find(key);
  return (v && v->is_string()) ? v->as_string() : fallback;
}

double Json::GetNumber(const std::string& key, double fallback) const {
  const Json* v = Find(key);
  return (v && v->is_number()) ? v->as_number() : fallback;
}

int64_t Json::GetInt(const std::string& key, int64_t fallback) const {
  const Json* v = Find(key);
  return (v && v->is_number()) ? v->as_int() : fallback;
}

bool Json::GetBool(const std::string& key, bool fallback) const {
  const Json* v = Find(key);
  return (v && v->is_bool()) ? v->as_bool() : fallback;
}

void Json::DumpTo(std::string* out, int indent, int depth) const {
  auto newline = [&] {
    if (indent > 0) {
      out->push_back('\n');
      out->append(static_cast<size_t>(indent * (depth + 1)), ' ');
    }
  };
  auto closing_newline = [&] {
    if (indent > 0) {
      out->push_back('\n');
      out->append(static_cast<size_t>(indent * depth), ' ');
    }
  };
  switch (type_) {
    case Type::kNull:
      *out += "null";
      break;
    case Type::kBool:
      *out += bool_ ? "true" : "false";
      break;
    case Type::kNumber:
      AppendNumber(number_, out);
      break;
    case Type::kString:
      EscapeString(string_, out);
      break;
    case Type::kArray: {
      if (array_.empty()) {
        *out += "[]";
        break;
      }
      out->push_back('[');
      bool first = true;
      for (const Json& v : array_) {
        if (!first) out->push_back(',');
        first = false;
        newline();
        v.DumpTo(out, indent, depth + 1);
      }
      closing_newline();
      out->push_back(']');
      break;
    }
    case Type::kObject: {
      if (object_.empty()) {
        *out += "{}";
        break;
      }
      out->push_back('{');
      bool first = true;
      for (const auto& [key, v] : object_) {
        if (!first) out->push_back(',');
        first = false;
        newline();
        EscapeString(key, out);
        out->push_back(':');
        if (indent > 0) out->push_back(' ');
        v.DumpTo(out, indent, depth + 1);
      }
      closing_newline();
      out->push_back('}');
      break;
    }
  }
}

std::string Json::Dump() const {
  std::string out;
  DumpTo(&out, 0, 0);
  return out;
}

std::string Json::Pretty() const {
  std::string out;
  DumpTo(&out, 2, 0);
  return out;
}

Result<Json> Json::Parse(std::string_view text) {
  Parser parser(text);
  return parser.Parse();
}

bool operator==(const Json& a, const Json& b) {
  if (a.type_ != b.type_) return false;
  switch (a.type_) {
    case Json::Type::kNull:
      return true;
    case Json::Type::kBool:
      return a.bool_ == b.bool_;
    case Json::Type::kNumber:
      return a.number_ == b.number_;
    case Json::Type::kString:
      return a.string_ == b.string_;
    case Json::Type::kArray:
      return a.array_ == b.array_;
    case Json::Type::kObject:
      return a.object_ == b.object_;
  }
  return false;
}

}  // namespace fuxi
