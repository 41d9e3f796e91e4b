//===- service/Json.cpp - Minimal JSON for the wire protocol ----------------===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "service/Json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

using namespace dae;
using namespace dae::service;

namespace {

struct Parser {
  const std::string &T;
  std::size_t P = 0;
  unsigned Depth = 0; ///< Objects and arrays open around P.
  std::string Err;

  explicit Parser(const std::string &Text) : T(Text) {}

  bool fail(const char *Msg) {
    char Buf[128];
    std::snprintf(Buf, sizeof(Buf), "%s at offset %zu", Msg, P);
    Err = Buf;
    return false;
  }

  void skipWs() {
    while (P < T.size() && (T[P] == ' ' || T[P] == '\t' || T[P] == '\n' ||
                            T[P] == '\r'))
      ++P;
  }

  bool parseValue(JsonValue &Out) {
    skipWs();
    if (P >= T.size())
      return fail("unexpected end of input");
    switch (T[P]) {
    case '{':
    case '[': {
      if (Depth == MaxJsonDepth)
        return fail("nesting too deep");
      ++Depth;
      bool Ok = T[P] == '{' ? parseObject(Out) : parseArray(Out);
      --Depth;
      return Ok;
    }
    case '"':
      Out.K = JsonValue::Kind::String;
      return parseString(Out.Str);
    case 't':
      if (T.compare(P, 4, "true") == 0) {
        Out.K = JsonValue::Kind::Bool;
        Out.B = true;
        P += 4;
        return true;
      }
      return fail("invalid literal");
    case 'f':
      if (T.compare(P, 5, "false") == 0) {
        Out.K = JsonValue::Kind::Bool;
        Out.B = false;
        P += 5;
        return true;
      }
      return fail("invalid literal");
    case 'n':
      if (T.compare(P, 4, "null") == 0) {
        Out.K = JsonValue::Kind::Null;
        P += 4;
        return true;
      }
      return fail("invalid literal");
    default:
      return parseNumber(Out);
    }
  }

  bool parseObject(JsonValue &Out) {
    Out.K = JsonValue::Kind::Object;
    ++P; // '{'
    skipWs();
    if (P < T.size() && T[P] == '}') {
      ++P;
      return true;
    }
    for (;;) {
      skipWs();
      if (P >= T.size() || T[P] != '"')
        return fail("expected object key");
      std::string Key;
      if (!parseString(Key))
        return false;
      skipWs();
      if (P >= T.size() || T[P] != ':')
        return fail("expected ':'");
      ++P;
      JsonValue V;
      if (!parseValue(V))
        return false;
      Out.Obj.emplace_back(std::move(Key), std::move(V));
      skipWs();
      if (P < T.size() && T[P] == ',') {
        ++P;
        continue;
      }
      if (P < T.size() && T[P] == '}') {
        ++P;
        return true;
      }
      return fail("expected ',' or '}'");
    }
  }

  bool parseArray(JsonValue &Out) {
    Out.K = JsonValue::Kind::Array;
    ++P; // '['
    skipWs();
    if (P < T.size() && T[P] == ']') {
      ++P;
      return true;
    }
    for (;;) {
      JsonValue V;
      if (!parseValue(V))
        return false;
      Out.Arr.push_back(std::move(V));
      skipWs();
      if (P < T.size() && T[P] == ',') {
        ++P;
        continue;
      }
      if (P < T.size() && T[P] == ']') {
        ++P;
        return true;
      }
      return fail("expected ',' or ']'");
    }
  }

  bool parseString(std::string &Out) {
    ++P; // '"'
    Out.clear();
    while (P < T.size()) {
      char C = T[P];
      if (C == '"') {
        ++P;
        return true;
      }
      if (static_cast<unsigned char>(C) < 0x20)
        return fail("unescaped control character in string");
      if (C != '\\') {
        Out += C;
        ++P;
        continue;
      }
      ++P;
      if (P >= T.size())
        return fail("unterminated escape");
      switch (T[P]) {
      case '"':
        Out += '"';
        break;
      case '\\':
        Out += '\\';
        break;
      case '/':
        Out += '/';
        break;
      case 'b':
        Out += '\b';
        break;
      case 'f':
        Out += '\f';
        break;
      case 'n':
        Out += '\n';
        break;
      case 'r':
        Out += '\r';
        break;
      case 't':
        Out += '\t';
        break;
      case 'u': {
        if (P + 4 >= T.size())
          return fail("truncated \\u escape");
        unsigned V = 0;
        for (int K = 1; K <= 4; ++K) {
          char H = T[P + K];
          V <<= 4;
          if (H >= '0' && H <= '9')
            V |= static_cast<unsigned>(H - '0');
          else if (H >= 'a' && H <= 'f')
            V |= static_cast<unsigned>(H - 'a' + 10);
          else if (H >= 'A' && H <= 'F')
            V |= static_cast<unsigned>(H - 'A' + 10);
          else
            return fail("invalid \\u escape");
        }
        P += 4;
        // UTF-8 encode the code unit (surrogate pairs are not needed by the
        // protocol; a lone surrogate round-trips as its 3-byte encoding).
        if (V < 0x80) {
          Out += static_cast<char>(V);
        } else if (V < 0x800) {
          Out += static_cast<char>(0xC0 | (V >> 6));
          Out += static_cast<char>(0x80 | (V & 0x3F));
        } else {
          Out += static_cast<char>(0xE0 | (V >> 12));
          Out += static_cast<char>(0x80 | ((V >> 6) & 0x3F));
          Out += static_cast<char>(0x80 | (V & 0x3F));
        }
        break;
      }
      default:
        return fail("invalid escape");
      }
      ++P;
    }
    return fail("unterminated string");
  }

  bool parseNumber(JsonValue &Out) {
    std::size_t Start = P;
    if (P < T.size() && T[P] == '-')
      ++P;
    while (P < T.size() && std::isdigit(static_cast<unsigned char>(T[P])))
      ++P;
    if (P < T.size() && T[P] == '.') {
      ++P;
      while (P < T.size() && std::isdigit(static_cast<unsigned char>(T[P])))
        ++P;
    }
    if (P < T.size() && (T[P] == 'e' || T[P] == 'E')) {
      ++P;
      if (P < T.size() && (T[P] == '+' || T[P] == '-'))
        ++P;
      while (P < T.size() && std::isdigit(static_cast<unsigned char>(T[P])))
        ++P;
    }
    std::string Tok = T.substr(Start, P - Start);
    char *End = nullptr;
    double V = std::strtod(Tok.c_str(), &End);
    if (Tok.empty() || End != Tok.c_str() + Tok.size() || !std::isfinite(V)) {
      P = Start;
      return fail("invalid number");
    }
    Out.K = JsonValue::Kind::Number;
    Out.Num = V;
    return true;
  }
};

} // namespace

bool service::parseJson(const std::string &Text, JsonValue &Out,
                        std::string &Err) {
  Parser P(Text);
  if (!P.parseValue(Out)) {
    Err = P.Err;
    return false;
  }
  P.skipWs();
  if (P.P != Text.size()) {
    P.fail("trailing content after document");
    Err = P.Err;
    return false;
  }
  return true;
}

std::string service::jsonEscape(const std::string &S) {
  std::string Out;
  Out.reserve(S.size());
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x",
                      static_cast<unsigned>(static_cast<unsigned char>(C)));
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
  return Out;
}

std::string service::hexDouble(double D) {
  char Buf[48];
  std::snprintf(Buf, sizeof(Buf), "%a", D);
  return Buf;
}

bool service::parseHexDouble(const std::string &S, double &Out) {
  if (S.empty())
    return false;
  char *End = nullptr;
  double V = std::strtod(S.c_str(), &End);
  if (End != S.c_str() + S.size())
    return false;
  Out = V;
  return true;
}
