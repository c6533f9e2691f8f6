#include "obs/json.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <istream>
#include <ostream>
#include <sstream>

#include "util/error.h"
#include "util/parse.h"

namespace vc2m::obs::json {

namespace {

class Parser {
 public:
  Parser(const std::string& text, const std::string& what)
      : s_(text), what_(what) {}

  Value parse() {
    Value v = value();
    skip_ws();
    VC2M_CHECK_MSG(pos_ == s_.size(),
                   what_ << " JSON: trailing garbage at offset " << pos_);
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r'))
      ++pos_;
  }

  char peek() {
    skip_ws();
    VC2M_CHECK_MSG(pos_ < s_.size(), what_ << " JSON: unexpected end");
    return s_[pos_];
  }

  void expect(char c) {
    VC2M_CHECK_MSG(peek() == c, what_ << " JSON: expected '" << c
                                      << "' at offset " << pos_ << ", got '"
                                      << s_[pos_] << "'");
    ++pos_;
  }

  bool consume(char c) {
    if (peek() == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Value value() {
    const char c = peek();  // also positions pos_ at the value start
    const std::size_t at = pos_;
    Value v = value_body(c);
    v.offset = at;
    return v;
  }

  Value value_body(char head) {
    switch (head) {
      case '{': return object();
      case '[': return array();
      case '"': {
        Value v;
        v.kind = Value::Kind::kString;
        v.str = string();
        return v;
      }
      case 't':
      case 'f': return boolean();
      case 'n': {
        literal("null");
        return {};
      }
      // NaN / Infinity / -Infinity are not JSON. Name them explicitly: the
      // generic "expected a value" message would hide what went wrong.
      case 'N':
      case 'I':
        VC2M_CHECK_MSG(false, what_ << " JSON: non-finite number at offset "
                                    << pos_);
        std::abort();  // unreachable
      default: return number_value();
    }
  }

  void literal(const char* word) {
    for (const char* p = word; *p; ++p) {
      VC2M_CHECK_MSG(pos_ < s_.size() && s_[pos_] == *p,
                     what_ << " JSON: bad literal at offset " << pos_);
      ++pos_;
    }
  }

  Value boolean() {
    Value v;
    v.kind = Value::Kind::kBool;
    if (s_[pos_] == 't') {
      literal("true");
      v.boolean = true;
    } else {
      literal("false");
    }
    return v;
  }

  Value number_value() {
    const std::size_t start = pos_;
    if (pos_ < s_.size() && (s_[pos_] == '-' || s_[pos_] == '+')) {
      VC2M_CHECK_MSG(pos_ + 1 >= s_.size() ||
                         (s_[pos_ + 1] != 'I' && s_[pos_ + 1] != 'N'),
                     what_ << " JSON: non-finite number at offset " << start);
    }
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '-' || s_[pos_] == '+' || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E'))
      ++pos_;
    VC2M_CHECK_MSG(pos_ > start,
                   what_ << " JSON: expected a value at offset " << start);
    const std::string_view tok(s_.data() + start, pos_ - start);
    const auto d = util::try_double(tok);
    VC2M_CHECK_MSG(d, what_ << " JSON: bad or non-finite number '" << tok
                            << "' at offset " << start);
    Value v;
    v.kind = Value::Kind::kNumber;
    v.number = *d;
    return v;
  }

  std::string string() {
    expect('"');
    std::string out;
    while (true) {
      VC2M_CHECK_MSG(pos_ < s_.size(), what_ << " JSON: unterminated string");
      const char c = s_[pos_++];
      if (c == '"') break;
      if (c == '\\') {
        VC2M_CHECK_MSG(pos_ < s_.size(), what_ << " JSON: dangling escape");
        const char e = s_[pos_++];
        switch (e) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case 'n': out.push_back('\n'); break;
          case 't': out.push_back('\t'); break;
          case 'r': out.push_back('\r'); break;
          case 'u': {
            // Read back exactly the \u00xx that escape() writes for the
            // other control bytes, and no other \u spelling.
            char c = 0;
            while (c < 0x20 &&
                   s_.compare(pos_ - 2, 6, escape(std::string(1, c))) != 0)
              ++c;
            VC2M_CHECK_MSG(c < 0x20, what_ << " JSON: unsupported escape '"
                                           << s_.substr(pos_ - 2, 6) << "'");
            out.push_back(c);
            pos_ += 4;
            break;
          }
          default:
            VC2M_CHECK_MSG(false, what_ << " JSON: unsupported escape '\\"
                                        << e << "'");
        }
      } else {
        // JSON forbids raw control characters in strings.
        VC2M_CHECK_MSG(static_cast<unsigned char>(c) >= 0x20,
                       what_ << " JSON: control character in string at offset "
                             << pos_ - 1);
        out.push_back(c);
      }
    }
    return out;
  }

  Value array() {
    expect('[');
    Value v;
    v.kind = Value::Kind::kArray;
    if (consume(']')) return v;
    while (true) {
      v.array.push_back(value());
      if (consume(']')) return v;
      expect(',');
    }
  }

  Value object() {
    expect('{');
    Value v;
    v.kind = Value::Kind::kObject;
    if (consume('}')) return v;
    while (true) {
      skip_ws();
      const std::size_t key_at = pos_;
      std::string key = string();
      VC2M_CHECK_MSG(v.find(key) == nullptr,
                     what_ << " JSON: duplicate key '" << key
                           << "' at offset " << key_at);
      expect(':');
      Value member = value();
      member.key_offset = key_at;
      v.object.emplace_back(std::move(key), std::move(member));
      if (consume('}')) return v;
      expect(',');
    }
  }

  const std::string& s_;
  const std::string& what_;
  std::size_t pos_ = 0;
};

}  // namespace

Value parse(const std::string& text, const std::string& what) {
  return Parser(text, what).parse();
}

Value parse_object(std::istream& is, const std::string& what) {
  std::ostringstream buf;
  buf << is.rdbuf();
  Value root = parse(buf.str(), what);
  VC2M_CHECK_MSG(root.kind == Value::Kind::kObject,
                 what << " JSON: top level must be an object");
  return root;
}

const char* kind_name(Value::Kind k) {
  switch (k) {
    case Value::Kind::kNull: return "null";
    case Value::Kind::kBool: return "boolean";
    case Value::Kind::kNumber: return "number";
    case Value::Kind::kString: return "string";
    case Value::Kind::kArray: return "array";
    case Value::Kind::kObject: return "object";
  }
  return "value";
}

void note_unknown_fields(const Value& obj,
                         std::initializer_list<const char*> known,
                         const std::string& what,
                         std::vector<std::string>* notes) {
  if (!notes) return;
  for (const auto& [k, v] : obj.object)
    if (std::find(known.begin(), known.end(), k) == known.end())
      notes->push_back(what + ": unknown field '" + k +
                       "' (written by a newer vc2m?) — ignored");
}

void check_sorted_keys(const Value& obj, const std::string& key,
                       const std::string& what) {
  for (std::size_t i = 1; i < obj.object.size(); ++i)
    VC2M_CHECK_MSG(obj.object[i - 1].first < obj.object[i].first,
                   what << ": field '" << key << "' lists key '"
                        << obj.object[i].first << "' out of order at offset "
                        << obj.object[i].second.key_offset);
}

std::optional<std::uint64_t> Value::as_count() const {
  if (kind != Kind::kNumber || std::signbit(number) ||
      number != std::floor(number) ||
      number >= static_cast<double>(kMaxExactCount))
    return std::nullopt;
  return static_cast<std::uint64_t>(number);
}

const Value* Value::find(const std::string& key, Kind want,
                         const std::string& what) const {
  const Value* v = find(key);
  VC2M_CHECK_MSG(!v || v->kind == want, what << ": field '" << key
                                             << "' must be of type "
                                             << kind_name(want));
  return v;
}

const Value& Value::get(const std::string& key, Kind want,
                        const std::string& what) const {
  const Value* v = find(key);
  VC2M_CHECK_MSG(v && v->kind == want, what << ": missing " << kind_name(want)
                                            << " field '" << key << "'");
  return *v;
}

std::uint64_t Value::get_count(const std::string& key,
                               const std::string& what) const {
  const auto v = get(key, Kind::kNumber, what).as_count();
  VC2M_CHECK_MSG(v, what << ": field '" << key
                         << "' must be a non-negative integer below 2^53");
  return *v;
}

std::map<std::string, std::string> Value::get_string_map(
    const std::string& key, const std::string& what) const {
  std::map<std::string, std::string> out;
  if (const Value* m = find(key, Kind::kObject, what)) {
    check_sorted_keys(*m, key, what);
    for (const auto& [k, v] : m->object) {
      VC2M_CHECK_MSG(v.kind == Kind::kString,
                     what << ": field '" << key << "' must hold strings");
      out[k] = v.str;
    }
  }
  return out;
}

void Value::out_of_range(const std::string& key, const std::string& what,
                         std::int64_t lo, std::int64_t hi) {
  throw util::Error(what + ": field '" + key + "' must be an integer in [" +
                    std::to_string(lo) + ", " + std::to_string(hi) + "]");
}

std::string escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

std::string number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

std::string ts_us(std::int64_t ns) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.3f", static_cast<double>(ns) / 1e3);
  return buf;
}

std::vector<std::string> trace_records(std::istream& is,
                                       const std::string& key) {
  std::string line;
  while (std::getline(is, line) && !line.starts_with("\"" + key + "\"")) {
  }
  VC2M_CHECK_MSG(is, "no " << key << " array (not a vc2m-written trace?)");
  std::vector<std::string> out;
  while (std::getline(is, line) && !line.starts_with("]")) {
    if (line.ends_with(',')) line.pop_back();
    out.push_back(std::move(line));
  }
  return out;
}

void LineWriter::line(const std::string& s) {
  os << (first ? "" : ",\n") << s;
  first = false;
}

}  // namespace vc2m::obs::json
