#include "pepa/printer.hpp"

#include <cmath>

#include "obs/numio.hpp"

namespace tags::pepa {

std::string format_rate(double v) {
  if (v == std::floor(v) && std::abs(v) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0f", v);
    return buf;
  }
  // to_chars: same bytes as %.17g in the C locale, immune to LC_NUMERIC.
  return numio::format_g(v, 17);
}

namespace {

int precedence(RateExpr::Kind k) {
  switch (k) {
    case RateExpr::Kind::kAdd:
    case RateExpr::Kind::kSub: return 1;
    case RateExpr::Kind::kMul:
    case RateExpr::Kind::kDiv: return 2;
    case RateExpr::Kind::kNeg: return 3;
    default: return 4;
  }
}

std::string print_rate(const RateExpr& e, int parent_prec) {
  using K = RateExpr::Kind;
  std::string body;
  const int prec = precedence(e.kind);
  switch (e.kind) {
    case K::kNumber: body = format_rate(e.number); break;
    case K::kIdent: body = e.ident; break;
    case K::kInfty: body = "infty"; break;
    case K::kNeg:
      body = "-";
      body += print_rate(*e.lhs, prec);
      break;
    case K::kAdd: body = print_rate(*e.lhs, prec) + " + " + print_rate(*e.rhs, prec + 1); break;
    case K::kSub: body = print_rate(*e.lhs, prec) + " - " + print_rate(*e.rhs, prec + 1); break;
    case K::kMul: body = print_rate(*e.lhs, prec) + " * " + print_rate(*e.rhs, prec + 1); break;
    case K::kDiv: body = print_rate(*e.lhs, prec) + " / " + print_rate(*e.rhs, prec + 1); break;
  }
  if (prec < parent_prec) return "(" + body + ")";
  return body;
}

std::string join(const std::vector<std::string>& names) {
  std::string out;
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (i > 0) out += ", ";
    out += names[i];
  }
  return out;
}

// Precedence for processes: coop (1) < choice (2) < prefix/hide/atom (3).
std::string print_proc(const Process& p, int parent_prec) {
  using K = Process::Kind;
  std::string body;
  int prec = 3;
  switch (p.kind) {
    case K::kConstant: body = p.name; break;
    case K::kPrefix:
      body = "(" + p.action + ", " + to_string(*p.rate) + ")." +
             print_proc(*p.continuation, 3);
      break;
    case K::kChoice:
      prec = 2;
      body = print_proc(*p.left, 2) + " + " + print_proc(*p.right, 2);
      break;
    case K::kCoop:
      prec = 1;
      body = print_proc(*p.left, 2) + " <" + join(p.action_set) + "> " +
             print_proc(*p.right, 2);
      break;
    case K::kHide:
      body = print_proc(*p.left, 3) + " / {" + join(p.action_set) + "}";
      break;
  }
  if (prec < parent_prec) return "(" + body + ")";
  return body;
}

}  // namespace

std::string to_string(const RateExpr& e) { return print_rate(e, 0); }

std::string to_string(const Process& p) { return print_proc(p, 0); }

std::string to_source(const Model& m) {
  std::string out;
  for (const ParamDef& p : m.params) {
    out += p.name + " = " + to_string(*p.value) + ";\n";
  }
  if (!m.params.empty()) out += "\n";
  for (const ProcessDef& d : m.definitions) {
    out += d.name + " = " + to_string(*d.body) + ";\n";
  }
  return out;
}

}  // namespace tags::pepa
