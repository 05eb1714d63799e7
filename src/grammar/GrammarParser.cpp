//===- grammar/GrammarParser.cpp - burg-style grammar text parser ---------===//
//
// Part of the odburg project.
//
//===----------------------------------------------------------------------===//

#include "grammar/GrammarParser.h"

#include "support/SmallVector.h"

#include <cctype>
#include <string>

using namespace odburg;

namespace {

enum class TokKind {
  Ident,      // operator or nonterminal name
  Number,     // unsigned integer
  String,     // "..." emit template (quotes stripped)
  Colon,      // :
  LParen,     // (
  RParen,     // )
  Comma,      // ,
  Equals,     // =
  Semi,       // ;
  Question,   // ?
  Directive,  // %start etc. (text includes the %)
  End,
};

struct Token {
  TokKind Kind;
  std::string_view Text;
  unsigned Line;
};

/// Hand-rolled lexer; '#' starts a comment to end of line.
class Lexer {
public:
  explicit Lexer(std::string_view Text) : Text(Text) {}

  Token next() {
    skipTrivia();
    if (Pos >= Text.size())
      return {TokKind::End, {}, Line};
    char C = Text[Pos];
    unsigned TokLine = Line;
    if (std::isalpha(static_cast<unsigned char>(C)) || C == '_' || C == '$')
      return {TokKind::Ident, lexWord(), TokLine};
    if (std::isdigit(static_cast<unsigned char>(C)))
      return {TokKind::Number, lexNumber(), TokLine};
    if (C == '%')
      return {TokKind::Directive, lexWord(), TokLine};
    if (C == '"')
      return lexString(TokLine);
    ++Pos;
    switch (C) {
    case ':':
      return {TokKind::Colon, ":", TokLine};
    case '(':
      return {TokKind::LParen, "(", TokLine};
    case ')':
      return {TokKind::RParen, ")", TokLine};
    case ',':
      return {TokKind::Comma, ",", TokLine};
    case '=':
      return {TokKind::Equals, "=", TokLine};
    case ';':
      return {TokKind::Semi, ";", TokLine};
    case '?':
      return {TokKind::Question, "?", TokLine};
    default:
      HadError = true;
      ErrorMsg = "unexpected character '" + std::string(1, C) + "' on line " +
                 std::to_string(TokLine);
      return {TokKind::End, {}, TokLine};
    }
  }

  bool hadError() const { return HadError; }
  const std::string &errorMessage() const { return ErrorMsg; }

private:
  void skipTrivia() {
    while (Pos < Text.size()) {
      char C = Text[Pos];
      if (C == '\n') {
        ++Line;
        ++Pos;
      } else if (C == ' ' || C == '\t' || C == '\r') {
        ++Pos;
      } else if (C == '#') {
        while (Pos < Text.size() && Text[Pos] != '\n')
          ++Pos;
      } else {
        break;
      }
    }
  }

  std::string_view lexWord() {
    std::size_t Start = Pos;
    ++Pos; // Consume the leading %, letter, '_' or '$'.
    while (Pos < Text.size()) {
      char C = Text[Pos];
      if (std::isalnum(static_cast<unsigned char>(C)) || C == '_' || C == '.' ||
          C == '$')
        ++Pos;
      else
        break;
    }
    return Text.substr(Start, Pos - Start);
  }

  std::string_view lexNumber() {
    std::size_t Start = Pos;
    while (Pos < Text.size() &&
           std::isdigit(static_cast<unsigned char>(Text[Pos])))
      ++Pos;
    return Text.substr(Start, Pos - Start);
  }

  Token lexString(unsigned TokLine) {
    ++Pos; // Opening quote.
    std::size_t Start = Pos;
    while (Pos < Text.size() && Text[Pos] != '"' && Text[Pos] != '\n')
      ++Pos;
    if (Pos >= Text.size() || Text[Pos] != '"') {
      HadError = true;
      ErrorMsg = "unterminated string on line " + std::to_string(TokLine);
      return {TokKind::End, {}, TokLine};
    }
    std::string_view Body = Text.substr(Start, Pos - Start);
    ++Pos; // Closing quote.
    return {TokKind::String, Body, TokLine};
  }

  std::string_view Text;
  std::size_t Pos = 0;
  unsigned Line = 1;
  bool HadError = false;
  std::string ErrorMsg;
};

/// Recursive-descent parser producing a finalized Grammar.
class Parser {
public:
  explicit Parser(std::string_view Text) : Lex(Text) { advance(); }

  Expected<Grammar> run() {
    while (Tok.Kind != TokKind::End) {
      Error E = Tok.Kind == TokKind::Directive ? parseDirective()
                                               : parseRule();
      if (E) {
        // A lexical error surfaces as an unexpected End token; report the
        // lexer's message, which is more precise.
        if (Lex.hadError()) {
          E.consume();
          return Error::make(Lex.errorMessage());
        }
        return E;
      }
      E.consume();
      if (Lex.hadError())
        return Error::make(Lex.errorMessage());
    }
    if (!PendingStart.empty()) {
      NonterminalId Nt = G.findNonterminal(PendingStart);
      if (Nt == InvalidNonterminal)
        return Error::make("%start nonterminal '" + PendingStart +
                           "' has no rules");
      G.setStart(Nt);
    }
    if (Error E = G.finalize())
      return E;
    return std::move(G);
  }

private:
  void advance() {
    if (HasPeeked) {
      Tok = Peeked;
      HasPeeked = false;
      return;
    }
    Tok = Lex.next();
  }

  /// One-token lookahead, needed to tell `Op (child)` from `Op (cost)`.
  const Token &peek() {
    if (!HasPeeked) {
      Peeked = Lex.next();
      HasPeeked = true;
    }
    return Peeked;
  }

  Error err(const std::string &Msg) {
    return Error::make(Msg + " on line " + std::to_string(Tok.Line));
  }

  /// The diagnostic for a name in the reserved '$' namespace, built by
  /// append: GCC 12 raises a false -Wrestrict on the operator+ chain.
  Error reservedNameError(std::string_view Name) {
    std::string Msg = "'";
    Msg.append(Name).append("': names starting with $ are reserved");
    return err(Msg);
  }

  Error expect(TokKind K, const char *What) {
    if (Tok.Kind != K)
      return err(std::string("expected ") + What);
    advance();
    return Error::success();
  }

  static bool isOperatorName(std::string_view Name) {
    return !Name.empty() && std::isupper(static_cast<unsigned char>(Name[0]));
  }

  Error parseDirective() {
    if (Tok.Text == "%start") {
      advance();
      if (Tok.Kind != TokKind::Ident || isOperatorName(Tok.Text))
        return err("expected nonterminal name after %start");
      PendingStart = std::string(Tok.Text);
      advance();
      return Error::success();
    }
    return err("unknown directive '" + std::string(Tok.Text) + "'");
  }

  /// pattern := nt | Op | Op '(' pattern {',' pattern} ')'
  Error parsePattern(PatternNode *&Out) {
    if (Tok.Kind != TokKind::Ident)
      return err("expected pattern");
    std::string_view Name = Tok.Text;
    unsigned NameLine = Tok.Line;
    advance();
    if (!isOperatorName(Name)) {
      if (Name[0] == '$')
        return reservedNameError(Name);
      Out = G.makeLeaf(G.addNonterminal(Name));
      return Error::success();
    }
    SmallVector<PatternNode *, 4> Children;
    // `Reg (0)` is a leaf operator followed by the rule's cost clause, not
    // an operator with children: pattern children never start with a
    // number, so one token of lookahead disambiguates.
    if (Tok.Kind == TokKind::LParen && peek().Kind != TokKind::Number) {
      advance();
      while (true) {
        PatternNode *Child = nullptr;
        if (Error E = parsePattern(Child))
          return E;
        Children.push_back(Child);
        if (Tok.Kind == TokKind::Comma) {
          advance();
          continue;
        }
        break;
      }
      if (Error E = expect(TokKind::RParen, "')'"))
        return E;
    }
    OperatorId Op = G.findOperator(Name);
    if (Op == InvalidOperator) {
      Op = G.addOperator(Name, Children.size());
    } else if (G.operatorArity(Op) != Children.size()) {
      return Error::make("operator '" + std::string(Name) + "' used with " +
                         std::to_string(Children.size()) +
                         " operands but has arity " +
                         std::to_string(G.operatorArity(Op)) + " on line " +
                         std::to_string(NameLine));
    }
    Out = G.makeNode(Op, Children);
    return Error::success();
  }

  /// rule := nt ':' pattern ['=' num] ['(' num ')'] ['?' ident] [string] ';'
  Error parseRule() {
    if (Tok.Kind != TokKind::Ident || isOperatorName(Tok.Text))
      return err("expected rule left-hand-side nonterminal");
    if (Tok.Text[0] == '$')
      return reservedNameError(Tok.Text);
    NonterminalId Lhs = G.addNonterminal(Tok.Text);
    advance();
    if (Error E = expect(TokKind::Colon, "':'"))
      return E;

    PatternNode *Pattern = nullptr;
    if (Error E = parsePattern(Pattern))
      return E;

    unsigned ExtNumber = 0;
    if (Tok.Kind == TokKind::Equals) {
      advance();
      if (Tok.Kind != TokKind::Number)
        return err("expected rule number after '='");
      ExtNumber = static_cast<unsigned>(std::stoul(std::string(Tok.Text)));
      advance();
    }

    Cost RuleCost = Cost::zero();
    if (Tok.Kind == TokKind::LParen) {
      advance();
      if (Tok.Kind != TokKind::Number)
        return err("expected cost");
      RuleCost = Cost(static_cast<Cost::ValueType>(
          std::stoul(std::string(Tok.Text))));
      advance();
      if (Error E = expect(TokKind::RParen, "')' after cost"))
        return E;
    }

    DynCostId Hook = InvalidDynCost;
    if (Tok.Kind == TokKind::Question) {
      advance();
      if (Tok.Kind != TokKind::Ident)
        return err("expected dynamic-cost hook name after '?'");
      Hook = G.addDynHook(Tok.Text);
      advance();
    }

    std::string Template;
    if (Tok.Kind == TokKind::String) {
      Template = std::string(Tok.Text);
      advance();
    }

    if (Error E = expect(TokKind::Semi, "';' at end of rule"))
      return E;

    G.addRule(Lhs, Pattern, RuleCost, Hook, ExtNumber, std::move(Template));
    return Error::success();
  }

  Lexer Lex;
  Token Tok{TokKind::End, {}, 0};
  Token Peeked{TokKind::End, {}, 0};
  bool HasPeeked = false;
  Grammar G;
  std::string PendingStart;
};

} // namespace

Expected<Grammar> odburg::parseGrammar(std::string_view Text) {
  return Parser(Text).run();
}
