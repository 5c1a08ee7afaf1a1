#include "json.hh"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "common/logging.hh"
#include "common/text.hh"

namespace wo {

Json
Json::array()
{
    Json j;
    j.kind_ = Kind::array;
    return j;
}

Json
Json::object()
{
    Json j;
    j.kind_ = Kind::object;
    return j;
}

double
Json::numberValue() const
{
    switch (kind_) {
      case Kind::unsigned_number:
        return static_cast<double>(u64_);
      case Kind::signed_number:
        return static_cast<double>(i64_);
      case Kind::double_number:
        return dbl_;
      default:
        return 0.0;
    }
}

std::uint64_t
Json::uintValue() const
{
    switch (kind_) {
      case Kind::unsigned_number:
        return u64_;
      case Kind::signed_number:
        return i64_ < 0 ? 0 : static_cast<std::uint64_t>(i64_);
      case Kind::double_number:
        return dbl_ < 0 ? 0 : static_cast<std::uint64_t>(dbl_);
      default:
        return 0;
    }
}

void
Json::push(Json v)
{
    wo_assert(kind_ == Kind::array, "push on non-array json value");
    items_.push_back(std::move(v));
}

void
Json::set(const std::string &key, Json v)
{
    wo_assert(kind_ == Kind::object, "set on non-object json value");
    for (auto &m : members_) {
        if (m.first == key) {
            m.second = std::move(v);
            return;
        }
    }
    members_.emplace_back(key, std::move(v));
}

const Json *
Json::find(const std::string &key) const
{
    for (const auto &m : members_)
        if (m.first == key)
            return &m.second;
    return nullptr;
}

Json *
Json::find(const std::string &key)
{
    for (auto &m : members_)
        if (m.first == key)
            return &m.second;
    return nullptr;
}

std::string
Json::stringAt(const std::string &key) const
{
    const Json *v = find(key);
    return v && v->isString() ? v->stringValue() : std::string();
}

std::uint64_t
Json::uintAt(const std::string &key, std::uint64_t dflt) const
{
    const Json *v = find(key);
    return v && v->isNumber() ? v->uintValue() : dflt;
}

double
Json::numberAt(const std::string &key, double dflt) const
{
    const Json *v = find(key);
    return v && v->isNumber() ? v->numberValue() : dflt;
}

bool
Json::boolAt(const std::string &key) const
{
    const Json *v = find(key);
    return v && v->isBool() && v->boolValue();
}

void
jsonEscape(std::string &out, std::string_view text)
{
    // Unescaped runs are appended whole; only the bytes that need an
    // escape are handled one at a time.
    std::size_t run = 0;
    for (std::size_t i = 0; i < text.size(); ++i) {
        const unsigned char c = static_cast<unsigned char>(text[i]);
        const char *esc = nullptr;
        switch (c) {
          case '"': esc = "\\\""; break;
          case '\\': esc = "\\\\"; break;
          case '\b': esc = "\\b"; break;
          case '\f': esc = "\\f"; break;
          case '\n': esc = "\\n"; break;
          case '\r': esc = "\\r"; break;
          case '\t': esc = "\\t"; break;
          default:
            if (c >= 0x20)
                continue;
        }
        out.append(text.data() + run, i - run);
        run = i + 1;
        if (esc) {
            out += esc;
        } else {
            const char u[6] = {'\\', 'u', '0', '0',
                               "0123456789abcdef"[c >> 4],
                               "0123456789abcdef"[c & 0xf]};
            out.append(u, sizeof u);
        }
    }
    out.append(text.data() + run, text.size() - run);
}

void
JsonObjectWriter::key(std::string_view k)
{
    if (!first_)
        out_ += ',';
    first_ = false;
    out_ += '"';
    jsonEscape(out_, k);
    out_ += "\":";
}

void
JsonObjectWriter::field(std::string_view k, std::uint64_t v)
{
    key(k);
    appendNumber(out_, v);
}

void
JsonObjectWriter::field(std::string_view k, double v)
{
    key(k);
    if (std::isfinite(v))
        appendNumber(out_, v, std::chars_format::general, 17);
    else
        out_ += "null";
}

void
JsonObjectWriter::field(std::string_view k, bool v)
{
    key(k);
    out_ += v ? "true" : "false";
}

void
JsonObjectWriter::field(std::string_view k, std::string_view v)
{
    key(k);
    out_ += '"';
    jsonEscape(out_, v);
    out_ += '"';
}

void
Json::dumpTo(std::string &out, int indent, int depth) const
{
    const std::string pad(indent > 0 ? indent * (depth + 1) : 0, ' ');
    const std::string close_pad(indent > 0 ? indent * depth : 0, ' ');
    const char *nl = indent > 0 ? "\n" : "";
    switch (kind_) {
      case Kind::null:
        out += "null";
        return;
      case Kind::boolean:
        out += bool_ ? "true" : "false";
        return;
      case Kind::unsigned_number:
        appendNumber(out, u64_);
        return;
      case Kind::signed_number:
        appendNumber(out, i64_);
        return;
      case Kind::double_number:
        if (std::isfinite(dbl_)) {
            // The same text as printf's "%.17g", without the locale
            // and format-string work of going through printf.
            appendNumber(out, dbl_, std::chars_format::general, 17);
        } else {
            // JSON has no inf/nan; null is the conventional stand-in.
            out += "null";
        }
        return;
      case Kind::string:
        out += '"';
        jsonEscape(out, str_);
        out += '"';
        return;
      case Kind::array:
        if (items_.empty()) {
            out += "[]";
            return;
        }
        out += '[';
        out += nl;
        for (std::size_t i = 0; i < items_.size(); ++i) {
            out += pad;
            items_[i].dumpTo(out, indent, depth + 1);
            if (i + 1 < items_.size())
                out += ',';
            out += nl;
        }
        out += close_pad;
        out += ']';
        return;
      case Kind::object:
        if (members_.empty()) {
            out += "{}";
            return;
        }
        out += '{';
        out += nl;
        for (std::size_t i = 0; i < members_.size(); ++i) {
            out += pad;
            out += '"';
            jsonEscape(out, members_[i].first);
            out += indent > 0 ? "\": " : "\":";
            members_[i].second.dumpTo(out, indent, depth + 1);
            if (i + 1 < members_.size())
                out += ',';
            out += nl;
        }
        out += close_pad;
        out += '}';
        return;
    }
}

std::string
Json::dump(int indent) const
{
    std::string out;
    dumpTo(out, indent, 0);
    return out;
}

namespace {

/**
 * Strict recursive-descent JSON parser over an in-memory buffer.  The
 * input is a string_view so callers scanning a large buffer (the
 * campaign journal replays millions of lines) can parse each line in
 * place without copying it out first.
 */
class Parser
{
  public:
    explicit Parser(std::string_view text) : text_(text) {}

    JsonParseResult run()
    {
        JsonParseResult r;
        skipWs();
        if (!parseValue(r.value)) {
            r.error = error_;
            r.offset = pos_;
            return r;
        }
        skipWs();
        if (pos_ != text_.size()) {
            r.error = "trailing characters after document";
            r.offset = pos_;
            return r;
        }
        r.ok = true;
        return r;
    }

  private:
    bool fail(const std::string &why)
    {
        if (error_.empty())
            error_ = why;
        return false;
    }

    void skipWs()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    bool literal(const char *word, Json v, Json &out)
    {
        const std::size_t n = std::string(word).size();
        if (text_.compare(pos_, n, word) != 0)
            return fail(strprintf("expected '%s'", word));
        pos_ += n;
        out = std::move(v);
        return true;
    }

    bool parseString(std::string &out)
    {
        if (pos_ >= text_.size() || text_[pos_] != '"')
            return fail("expected string");
        ++pos_;
        while (pos_ < text_.size()) {
            char c = text_[pos_++];
            if (c == '"')
                return true;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= text_.size())
                return fail("dangling escape");
            char e = text_[pos_++];
            switch (e) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'n': out += '\n'; break;
              case 'r': out += '\r'; break;
              case 't': out += '\t'; break;
              case 'u': {
                  if (pos_ + 4 > text_.size())
                      return fail("truncated \\u escape");
                  unsigned cp = 0;
                  for (int i = 0; i < 4; ++i) {
                      char h = text_[pos_++];
                      cp <<= 4;
                      if (h >= '0' && h <= '9')
                          cp |= h - '0';
                      else if (h >= 'a' && h <= 'f')
                          cp |= h - 'a' + 10;
                      else if (h >= 'A' && h <= 'F')
                          cp |= h - 'A' + 10;
                      else
                          return fail("bad \\u escape digit");
                  }
                  // UTF-8 encode the basic-multilingual-plane code point;
                  // surrogate pairs are not needed by anything we emit.
                  if (cp < 0x80) {
                      out += static_cast<char>(cp);
                  } else if (cp < 0x800) {
                      out += static_cast<char>(0xc0 | (cp >> 6));
                      out += static_cast<char>(0x80 | (cp & 0x3f));
                  } else {
                      out += static_cast<char>(0xe0 | (cp >> 12));
                      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
                      out += static_cast<char>(0x80 | (cp & 0x3f));
                  }
                  break;
              }
              default:
                return fail("unknown escape");
            }
        }
        return fail("unterminated string");
    }

    bool parseNumber(Json &out)
    {
        const std::size_t start = pos_;
        bool negative = false;
        bool integral = true;
        if (pos_ < text_.size() && text_[pos_] == '-') {
            negative = true;
            ++pos_;
        }
        while (pos_ < text_.size() &&
               std::isdigit(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
        if (pos_ == start + (negative ? 1 : 0))
            return fail("malformed number");
        if (pos_ < text_.size() && text_[pos_] == '.') {
            integral = false;
            ++pos_;
            while (pos_ < text_.size() &&
                   std::isdigit(static_cast<unsigned char>(text_[pos_])))
                ++pos_;
        }
        if (pos_ < text_.size() &&
            (text_[pos_] == 'e' || text_[pos_] == 'E')) {
            integral = false;
            ++pos_;
            if (pos_ < text_.size() &&
                (text_[pos_] == '+' || text_[pos_] == '-'))
                ++pos_;
            while (pos_ < text_.size() &&
                   std::isdigit(static_cast<unsigned char>(text_[pos_])))
                ++pos_;
        }
        // Number literals are tiny (SSO): this copy exists only to get
        // a NUL terminator for strto*.
        const std::string lit(text_.substr(start, pos_ - start));
        if (integral && !negative) {
            out = Json(static_cast<std::uint64_t>(
                std::strtoull(lit.c_str(), nullptr, 10)));
        } else if (integral) {
            out = Json(static_cast<std::int64_t>(
                std::strtoll(lit.c_str(), nullptr, 10)));
        } else {
            out = Json(std::strtod(lit.c_str(), nullptr));
        }
        return true;
    }

    bool parseValue(Json &out)
    {
        if (++depth_ > max_depth)
            return fail("nesting too deep");
        skipWs();
        if (pos_ >= text_.size())
            return fail("unexpected end of input");
        bool ok = false;
        switch (text_[pos_]) {
          case 'n':
            ok = literal("null", Json(), out);
            break;
          case 't':
            ok = literal("true", Json(true), out);
            break;
          case 'f':
            ok = literal("false", Json(false), out);
            break;
          case '"': {
              std::string s;
              ok = parseString(s);
              if (ok)
                  out = Json(std::move(s));
              break;
          }
          case '[': {
              ++pos_;
              out = Json::array();
              skipWs();
              if (pos_ < text_.size() && text_[pos_] == ']') {
                  ++pos_;
                  ok = true;
                  break;
              }
              while (true) {
                  Json item;
                  if (!parseValue(item))
                      return false;
                  out.push(std::move(item));
                  skipWs();
                  if (pos_ < text_.size() && text_[pos_] == ',') {
                      ++pos_;
                      continue;
                  }
                  if (pos_ < text_.size() && text_[pos_] == ']') {
                      ++pos_;
                      ok = true;
                      break;
                  }
                  return fail("expected ',' or ']' in array");
              }
              break;
          }
          case '{': {
              ++pos_;
              out = Json::object();
              skipWs();
              if (pos_ < text_.size() && text_[pos_] == '}') {
                  ++pos_;
                  ok = true;
                  break;
              }
              while (true) {
                  skipWs();
                  std::string key;
                  if (!parseString(key))
                      return false;
                  skipWs();
                  if (pos_ >= text_.size() || text_[pos_] != ':')
                      return fail("expected ':' in object");
                  ++pos_;
                  Json val;
                  if (!parseValue(val))
                      return false;
                  out.set(key, std::move(val));
                  skipWs();
                  if (pos_ < text_.size() && text_[pos_] == ',') {
                      ++pos_;
                      continue;
                  }
                  if (pos_ < text_.size() && text_[pos_] == '}') {
                      ++pos_;
                      ok = true;
                      break;
                  }
                  return fail("expected ',' or '}' in object");
              }
              break;
          }
          default:
            ok = parseNumber(out);
            break;
        }
        --depth_;
        return ok;
    }

    static constexpr int max_depth = 256;

    std::string_view text_;
    std::size_t pos_ = 0;
    int depth_ = 0;
    std::string error_;
};

} // namespace

JsonParseResult
jsonParse(std::string_view text)
{
    return Parser(text).run();
}

bool
forEachJsonlObject(const std::string &path,
                   const std::function<void(const Json &)> &fn)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    const std::string text{std::istreambuf_iterator<char>(in), {}};
    const std::string_view all(text);
    for (std::size_t pos = 0, eol;
         (eol = all.find('\n', pos)) != std::string_view::npos;
         pos = eol + 1) {
        // Parse in place: a million-line journal must not copy every
        // line into a fresh string first.
        const JsonParseResult p = jsonParse(all.substr(pos, eol - pos));
        if (p.ok && p.value.isObject())
            fn(p.value);
    }
    return true;
}

} // namespace wo
