#include "pepa/parser.hpp"

#include <cctype>

#include "obs/obs.hpp"
#include "pepa/lexer.hpp"

namespace tags::pepa {

namespace {

[[nodiscard]] bool is_process_name(std::string_view name) noexcept {
  return !name.empty() && std::isupper(static_cast<unsigned char>(name.front()));
}

class Parser {
 public:
  explicit Parser(std::string_view source) : tokens_(lex(source)) {}

  Model parse_model() {
    Model model;
    while (!at(TokenKind::kEof)) {
      const Token& name = expect(TokenKind::kIdent, "definition name");
      expect(TokenKind::kEquals, "'=' after definition name");
      if (is_process_name(name.text)) {
        model.definitions.push_back({name.text, parse_proc()});
      } else {
        model.params.push_back({name.text, parse_rate_expr()});
      }
      expect(TokenKind::kSemicolon, "';' terminating definition");
    }
    return model;
  }

  ProcPtr parse_single_process() {
    ProcPtr p = parse_proc();
    expect(TokenKind::kEof, "end of input after process expression");
    return p;
  }

 private:
  // -- token plumbing -------------------------------------------------------
  [[nodiscard]] const Token& peek(std::size_t ahead = 0) const noexcept {
    const std::size_t i = std::min(pos_ + ahead, tokens_.size() - 1);
    return tokens_[i];
  }
  [[nodiscard]] bool at(TokenKind k) const noexcept { return peek().kind == k; }
  const Token& advance() noexcept { return tokens_[pos_ < tokens_.size() - 1 ? pos_++ : pos_]; }
  bool accept(TokenKind k) noexcept {
    if (at(k)) {
      advance();
      return true;
    }
    return false;
  }
  const Token& expect(TokenKind k, const char* what) {
    if (!at(k)) fail(std::string("expected ") + what);
    return advance();
  }
  [[noreturn]] void fail(const std::string& msg) const {
    const Token& t = peek();
    throw ParseError("parse error at " + std::to_string(t.line) + ":" +
                     std::to_string(t.column) + ": " + msg + " (found " +
                     token_kind_name(t.kind) +
                     (t.text.empty() ? std::string() : " '" + t.text + "'") + ")");
  }

  // -- process grammar ------------------------------------------------------
  ProcPtr parse_proc() {
    ProcPtr left = parse_hideterm();
    for (;;) {
      if (at(TokenKind::kLAngle)) {
        advance();
        std::vector<std::string> set = parse_name_list(TokenKind::kRAngle);
        expect(TokenKind::kRAngle, "'>' closing cooperation set");
        left = make_coop(std::move(left), parse_hideterm(), std::move(set));
      } else if (at(TokenKind::kParallel)) {
        advance();
        left = make_coop(std::move(left), parse_hideterm(), {});
      } else {
        return left;
      }
    }
  }

  ProcPtr parse_hideterm() {
    ProcPtr p = parse_sum();
    while (at(TokenKind::kSlash) && peek(1).kind == TokenKind::kLBrace) {
      advance();  // '/'
      advance();  // '{'
      std::vector<std::string> set = parse_name_list(TokenKind::kRBrace);
      expect(TokenKind::kRBrace, "'}' closing hiding set");
      p = make_hide(std::move(p), std::move(set));
    }
    return p;
  }

  ProcPtr parse_sum() {
    ProcPtr left = parse_seq();
    while (accept(TokenKind::kPlus)) {
      left = make_choice(std::move(left), parse_seq());
    }
    return left;
  }

  ProcPtr parse_seq() {
    if (at(TokenKind::kLParen)) {
      // Two-token lookahead: "(ident ," is an activity prefix, anything else
      // is a parenthesised process expression.
      if (peek(1).kind == TokenKind::kIdent && peek(2).kind == TokenKind::kComma) {
        advance();  // '('
        const Token& action = expect(TokenKind::kIdent, "action name");
        if (is_process_name(action.text)) {
          fail("action names must start with a lowercase letter: '" + action.text + "'");
        }
        expect(TokenKind::kComma, "',' between action and rate");
        RateExprPtr rate = parse_rate_expr();
        expect(TokenKind::kRParen, "')' closing activity");
        expect(TokenKind::kDot, "'.' after activity");
        return make_prefix(action.text, std::move(rate), parse_seq());
      }
      advance();  // '('
      ProcPtr inner = parse_proc();
      expect(TokenKind::kRParen, "')' closing process group");
      return inner;
    }
    const Token& name = expect(TokenKind::kIdent, "process constant or activity");
    if (!is_process_name(name.text)) {
      fail("process constants must start with an uppercase letter: '" + name.text + "'");
    }
    return make_constant(name.text);
  }

  std::vector<std::string> parse_name_list(TokenKind terminator) {
    std::vector<std::string> names;
    if (at(terminator)) return names;  // empty set
    for (;;) {
      const Token& n = expect(TokenKind::kIdent, "action name in set");
      names.push_back(n.text);
      if (!accept(TokenKind::kComma)) break;
    }
    return names;
  }

  // -- rate expressions -----------------------------------------------------
  RateExprPtr parse_rate_expr() { return parse_additive(); }

  RateExprPtr parse_additive() {
    RateExprPtr left = parse_multiplicative();
    for (;;) {
      if (accept(TokenKind::kPlus)) {
        left = rate_binary(RateExpr::Kind::kAdd, std::move(left), parse_multiplicative());
      } else if (accept(TokenKind::kMinus)) {
        left = rate_binary(RateExpr::Kind::kSub, std::move(left), parse_multiplicative());
      } else {
        return left;
      }
    }
  }

  RateExprPtr parse_multiplicative() {
    RateExprPtr left = parse_unary();
    for (;;) {
      if (accept(TokenKind::kStar)) {
        left = rate_binary(RateExpr::Kind::kMul, std::move(left), parse_unary());
      } else if (accept(TokenKind::kSlash)) {
        left = rate_binary(RateExpr::Kind::kDiv, std::move(left), parse_unary());
      } else {
        return left;
      }
    }
  }

  RateExprPtr parse_unary() {
    if (accept(TokenKind::kMinus)) return rate_neg(parse_unary());
    if (at(TokenKind::kNumber)) return rate_number(advance().number);
    if (at(TokenKind::kInfty)) {
      advance();
      return rate_infty();
    }
    if (at(TokenKind::kIdent)) {
      const Token& t = advance();
      if (is_process_name(t.text)) {
        fail("process constant '" + t.text + "' used where a rate was expected");
      }
      return rate_ident(t.text);
    }
    if (accept(TokenKind::kLParen)) {
      RateExprPtr e = parse_additive();
      expect(TokenKind::kRParen, "')' in rate expression");
      return e;
    }
    fail("expected a rate expression");
  }

  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
};

}  // namespace

Model parse_model(std::string_view source) {
  const obs::Span span("pepa/parse");  // lexing included
  return Parser(source).parse_model();
}

ProcPtr parse_process(std::string_view source) {
  return Parser(source).parse_single_process();
}

}  // namespace tags::pepa
