#include "adl/parser.h"

#include "adl/lexer.h"
#include "util/strings.h"

namespace aars::adl {

using util::Value;

namespace {

AstCompare compare_from(const std::string& text) {
  if (text == "<") return AstCompare::kLt;
  if (text == "<=") return AstCompare::kLe;
  if (text == ">") return AstCompare::kGt;
  if (text == ">=") return AstCompare::kGe;
  if (text == "==") return AstCompare::kEq;
  return AstCompare::kNe;
}

/// The parser is fail-fast: the first syntax error is recorded (with line
/// and column) and the declaration loop stops, since recovery after a
/// structural error mostly produces cascades.
class Parser {
 public:
  Parser(std::vector<Token> tokens, Diagnostics& diags)
      : tokens_(std::move(tokens)), diags_(diags) {}

  Configuration run() {
    Configuration config;
    while (!at_end() && !failed_) {
      const Token& head = peek();
      if (head.kind != TokenKind::kIdentifier) {
        fail("expected a declaration keyword");
        break;
      }
      if (head.text == "interface") {
        parse_interface(config);
      } else if (head.text == "component") {
        parse_component(config);
      } else if (head.text == "node") {
        parse_node(config);
      } else if (head.text == "link") {
        parse_link(config);
      } else if (head.text == "instance") {
        parse_instance(config);
      } else if (head.text == "connector") {
        parse_connector(config);
      } else if (head.text == "bind") {
        parse_binding(config);
      } else if (head.text == "when") {
        parse_rule(config);
      } else if (head.text == "goal") {
        parse_goal(config);
      } else if (head.text == "scenario") {
        parse_scenario(config);
      } else if (head.text == "property" || head.text == "invariant") {
        parse_property(config);
      } else {
        fail("unknown declaration '" + head.text + "'");
      }
    }
    return config;
  }

 private:
  const Token& peek(std::size_t ahead = 0) const {
    const std::size_t i = std::min(pos_ + ahead, tokens_.size() - 1);
    return tokens_[i];
  }
  const Token& advance() {
    return tokens_[std::min(pos_++, tokens_.size() - 1)];
  }
  bool at_end() const { return peek().kind == TokenKind::kEnd; }

  bool check_punct(const char* p) const {
    return peek().kind == TokenKind::kPunct && peek().text == p;
  }
  bool match_punct(const char* p) {
    if (!check_punct(p)) return false;
    advance();
    return true;
  }
  bool check_keyword(const char* kw) const {
    return peek().kind == TokenKind::kIdentifier && peek().text == kw;
  }
  bool match_keyword(const char* kw) {
    if (!check_keyword(kw)) return false;
    advance();
    return true;
  }

  /// Records the error and halts the parse. Returns false so call sites can
  /// `return fail(...)` from bool helpers.
  bool fail(const std::string& what, const char* code = nullptr) {
    if (failed_) return false;
    failed_ = true;
    const Token& t = peek();
    const bool eof = t.kind == TokenKind::kEnd;
    // An explicit code (e.g. "unterminated-rule") wins even at EOF — tests
    // and lint match on it; the generic fallback distinguishes plain parse
    // errors from running off the end of the file.
    if (code == nullptr) code = eof ? "unexpected-eof" : "parse-error";
    diags_.error(t.loc, code,
                 what + " (near '" + (eof ? "end of input" : t.text) + "')");
    return false;
  }

  bool expect_punct(const char* p) {
    if (!match_punct(p)) {
      if (failed_) return false;
      // A missing token at the end of line N is an error on line N, not
      // wherever line N+1 happens to start — anchor the diagnostic to the
      // end of the previous token when the next one sits on a later line
      // (the multi-line `protocol`/`component` block off-by-one).
      if (pos_ > 0) {
        const Token& prev = tokens_[pos_ - 1];
        const Token& next = peek();
        const bool eof = next.kind == TokenKind::kEnd;
        if (eof || next.loc.line > prev.loc.line) {
          failed_ = true;
          SourceLoc loc = prev.loc;
          loc.column += static_cast<int>(
              prev.text.empty() ? 1 : prev.text.size());
          diags_.error(loc, eof ? "unexpected-eof" : "parse-error",
                       std::string("expected '") + p + "' (after '" +
                           prev.text + "')");
          return false;
        }
      }
      return fail(std::string("expected '") + p + "'");
    }
    return true;
  }

  bool expect_identifier(const char* what, std::string& out) {
    if (peek().kind != TokenKind::kIdentifier) {
      return fail(std::string("expected ") + what);
    }
    out = advance().text;
    return true;
  }

  bool expect_integer(const char* what, std::int64_t& out) {
    if (peek().kind != TokenKind::kInteger) {
      return fail(std::string("expected ") + what);
    }
    out = advance().int_value;
    return true;
  }

  bool parse_literal(Value& out) {
    const Token& t = peek();
    switch (t.kind) {
      case TokenKind::kInteger:
        advance();
        out = Value{t.int_value};
        return true;
      case TokenKind::kFloat:
        advance();
        out = Value{t.float_value};
        return true;
      case TokenKind::kString:
        advance();
        out = Value{t.text};
        return true;
      case TokenKind::kIdentifier:
        if (t.text == "true") {
          advance();
          out = Value{true};
          return true;
        }
        if (t.text == "false") {
          advance();
          out = Value{false};
          return true;
        }
        if (t.text == "null") {
          advance();
          out = Value{};
          return true;
        }
        return fail("expected a literal");
      default:
        return fail("expected a literal");
    }
  }

  // interface Name [version N] { service name(p: type, ...) -> type; ... }
  void parse_interface(Configuration& config) {
    AstInterface iface;
    iface.loc = peek().loc;
    advance();  // interface
    if (!expect_identifier("interface name", iface.name)) return;
    if (match_keyword("version")) {
      if (peek().kind != TokenKind::kInteger) {
        fail("expected version");
        return;
      }
      iface.version = static_cast<int>(advance().int_value);
    }
    if (!expect_punct("{")) return;
    while (!check_punct("}")) {
      if (!match_keyword("service")) {
        fail("expected 'service'");
        return;
      }
      AstService service;
      service.loc = peek().loc;
      if (!expect_identifier("service name", service.name)) return;
      if (!expect_punct("(")) return;
      while (!check_punct(")")) {
        AstParam param;
        if (match_keyword("optional")) param.optional = true;
        if (!expect_identifier("parameter name", param.name)) return;
        if (!expect_punct(":")) return;
        if (!expect_identifier("parameter type", param.type)) return;
        service.params.push_back(std::move(param));
        if (!match_punct(",")) break;
      }
      if (!expect_punct(")")) return;
      if (peek().kind == TokenKind::kArrow) {
        advance();
        if (!expect_identifier("result type", service.result_type)) return;
      }
      if (!expect_punct(";")) return;
      iface.services.push_back(std::move(service));
    }
    advance();  // }
    config.interfaces.push_back(std::move(iface));
  }

  // component Name [provides Iface] { requires port: Iface; attribute n: t = lit; }
  void parse_component(Configuration& config) {
    AstComponent comp;
    comp.loc = peek().loc;
    advance();  // component
    if (!expect_identifier("component name", comp.name)) return;
    if (match_keyword("provides")) {
      if (!expect_identifier("provided interface", comp.provides)) return;
    }
    if (match_punct(";")) {
      config.components.push_back(std::move(comp));
      return;
    }
    if (!expect_punct("{")) return;
    while (!check_punct("}")) {
      if (match_keyword("requires")) {
        AstRequire req;
        req.loc = peek().loc;
        if (!expect_identifier("port name", req.port)) return;
        if (!expect_punct(":")) return;
        if (!expect_identifier("required interface", req.interface)) return;
        if (!expect_punct(";")) return;
        comp.requires_.push_back(std::move(req));
      } else if (match_keyword("attribute")) {
        AstAttribute attr;
        attr.loc = peek().loc;
        if (!expect_identifier("attribute name", attr.name)) return;
        if (!expect_punct(":")) return;
        if (!expect_identifier("attribute type", attr.type)) return;
        if (match_punct("=")) {
          if (!parse_literal(attr.default_value)) return;
        }
        if (!expect_punct(";")) return;
        comp.attributes.push_back(std::move(attr));
      } else if (check_keyword("protocol")) {
        if (comp.protocol.has_value()) {
          fail("component already declares a protocol");
          return;
        }
        AstProtocol protocol;
        if (!parse_protocol(protocol)) return;
        comp.protocol = std::move(protocol);
      } else {
        fail("expected 'requires', 'attribute' or 'protocol'");
        return;
      }
    }
    advance();  // }
    config.components.push_back(std::move(comp));
  }

  // protocol { state s [final]; ...  from -> to on action?|action!|tau; ... }
  bool parse_protocol(AstProtocol& protocol) {
    protocol.loc = peek().loc;
    advance();  // protocol
    if (!expect_punct("{")) return false;
    while (!check_punct("}")) {
      if (at_end()) return fail("unterminated protocol block");
      if (match_keyword("state")) {
        AstProtocolState state;
        state.loc = peek().loc;
        if (!expect_identifier("state name", state.name)) return false;
        if (match_keyword("final")) state.final_state = true;
        if (!expect_punct(";")) return false;
        protocol.states.push_back(std::move(state));
        continue;
      }
      AstProtocolTransition transition;
      transition.loc = peek().loc;
      if (!expect_identifier("state name or 'state'", transition.from)) {
        return false;
      }
      if (peek().kind != TokenKind::kArrow) return fail("expected '->'");
      advance();
      if (!expect_identifier("target state", transition.to)) return false;
      if (!match_keyword("on")) return fail("expected 'on <action>'");
      std::string action;
      if (!expect_identifier("action name", action)) return false;
      if (action == "tau") {
        transition.direction = 't';
      } else {
        transition.action = std::move(action);
        if (match_punct("?")) {
          transition.direction = '?';
        } else if (match_punct("!")) {
          transition.direction = '!';
        } else {
          return fail("expected '?' or '!' after action name");
        }
      }
      if (!expect_punct(";")) return false;
      protocol.transitions.push_back(std::move(transition));
    }
    advance();  // }
    return true;
  }

  // node Name { capacity N; }
  void parse_node(Configuration& config) {
    AstNode node;
    node.loc = peek().loc;
    advance();  // node
    if (!expect_identifier("node name", node.name)) return;
    if (!expect_punct("{")) return;
    while (!check_punct("}")) {
      if (match_keyword("capacity")) {
        if (peek().kind != TokenKind::kInteger &&
            peek().kind != TokenKind::kFloat) {
          fail("expected capacity value");
          return;
        }
        node.capacity = advance().float_value;
        if (node.capacity <= 0) {
          fail("capacity must be positive");
          return;
        }
        if (!expect_punct(";")) return;
      } else {
        fail("expected 'capacity'");
        return;
      }
    }
    advance();  // }
    config.nodes.push_back(std::move(node));
  }

  // link A -> B { latency 5ms; bandwidth 100mbps; jitter 1ms; loss 0.01; }
  void parse_link(Configuration& config) {
    AstLink link;
    link.loc = peek().loc;
    advance();  // link
    if (!expect_identifier("link source node", link.from)) return;
    if (peek().kind == TokenKind::kArrow) {
      advance();
    } else if (peek().kind == TokenKind::kDuplexArrow) {
      link.duplex = true;
      advance();
    } else {
      fail("expected '->' or '<->'");
      return;
    }
    if (!expect_identifier("link target node", link.to)) return;
    if (!expect_punct("{")) return;
    while (!check_punct("}")) {
      std::string prop;
      if (!expect_identifier("link property", prop)) return;
      if (peek().kind != TokenKind::kInteger &&
          peek().kind != TokenKind::kFloat) {
        fail("expected a numeric value");
        return;
      }
      const Token value = advance();
      if (prop == "latency") {
        link.latency_us = value.kind == TokenKind::kInteger
                              ? value.int_value
                              : static_cast<std::int64_t>(value.float_value);
      } else if (prop == "bandwidth") {
        link.bandwidth_bytes_per_sec = value.float_value;
      } else if (prop == "jitter") {
        link.jitter_us = value.kind == TokenKind::kInteger
                             ? value.int_value
                             : static_cast<std::int64_t>(value.float_value);
      } else if (prop == "loss") {
        link.loss = value.float_value;
        if (link.loss < 0.0 || link.loss > 1.0) {
          fail("loss must be in [0,1]");
          return;
        }
      } else {
        fail("unknown link property '" + prop + "'");
        return;
      }
      if (!expect_punct(";")) return;
    }
    advance();  // }
    config.links.push_back(std::move(link));
  }

  // instance name: Type on node [{ attr = lit; ... }] ;
  void parse_instance(Configuration& config) {
    AstInstance inst;
    inst.loc = peek().loc;
    advance();  // instance
    if (!expect_identifier("instance name", inst.name)) return;
    if (!expect_punct(":")) return;
    if (!expect_identifier("component type", inst.type)) return;
    if (!match_keyword("on")) {
      fail("expected 'on <node>'");
      return;
    }
    if (!expect_identifier("node name", inst.node)) return;
    if (match_punct("{")) {
      while (!check_punct("}")) {
        std::string aname;
        if (!expect_identifier("attribute name", aname)) return;
        if (!expect_punct("=")) return;
        Value lit;
        if (!parse_literal(lit)) return;
        inst.attribute_overrides.emplace_back(std::move(aname),
                                              std::move(lit));
        if (!expect_punct(";")) return;
      }
      advance();  // }
    } else if (!match_punct(";")) {
      fail("expected '{' or ';'");
      return;
    }
    config.instances.push_back(std::move(inst));
  }

  // connector name { routing X; delivery Y; capacity N; aspects [a, b]; }
  void parse_connector(Configuration& config) {
    AstConnector conn;
    conn.loc = peek().loc;
    advance();  // connector
    if (!expect_identifier("connector name", conn.name)) return;
    if (!expect_punct("{")) return;
    while (!check_punct("}")) {
      std::string prop;
      if (!expect_identifier("connector property", prop)) return;
      if (prop == "routing") {
        if (!expect_identifier("routing policy", conn.routing)) return;
      } else if (prop == "delivery") {
        if (!expect_identifier("delivery mode", conn.delivery)) return;
      } else if (prop == "capacity") {
        if (!expect_integer("integer capacity", conn.capacity)) return;
      } else if (prop == "budget") {
        if (peek().kind != TokenKind::kInteger) {
          fail("expected a duration budget (e.g. 5ms)");
          return;
        }
        conn.budget_us = advance().int_value;
      } else if (prop == "aspects") {
        if (!expect_punct("[")) return;
        while (!check_punct("]")) {
          std::string aspect;
          if (!expect_identifier("aspect name", aspect)) return;
          conn.aspects.push_back(std::move(aspect));
          if (!match_punct(",")) break;
        }
        if (!expect_punct("]")) return;
      } else {
        fail("unknown connector property '" + prop + "'");
        return;
      }
      if (!expect_punct(";")) return;
    }
    advance();  // }
    config.connectors.push_back(std::move(conn));
  }

  // bind inst.port -> provider[, provider2] [via connector] ;
  void parse_binding(Configuration& config) {
    AstBinding bind;
    bind.loc = peek().loc;
    advance();  // bind
    std::string source;
    if (!expect_identifier("binding source (instance.port)", source)) return;
    const auto parts = util::split(source, '.');
    if (parts.size() != 2 || parts[0].empty() || parts[1].empty()) {
      fail("binding source must be 'instance.port'");
      return;
    }
    bind.from_instance = parts[0];
    bind.from_port = parts[1];
    if (peek().kind != TokenKind::kArrow) {
      fail("expected '->'");
      return;
    }
    advance();
    while (true) {
      std::string target;
      if (!expect_identifier("provider instance", target)) return;
      bind.to_instances.push_back(std::move(target));
      if (!match_punct(",")) break;
    }
    if (match_keyword("via")) {
      if (!expect_identifier("connector name", bind.via_connector)) return;
    }
    if (!expect_punct(";")) return;
    config.bindings.push_back(std::move(bind));
  }

  // --- reconfiguration rules ---------------------------------------------

  // when <condition> [for N ticks] reconfigure [name]
  //   { [cooldown D;] [deadline D;] action* }
  void parse_rule(Configuration& config) {
    AstRule rule;
    rule.loc = peek().loc;
    advance();  // when
    if (!parse_condition(rule.condition)) return;
    if (match_keyword("for")) {
      std::int64_t ticks = 0;
      if (!expect_integer("tick count after 'for'", ticks)) return;
      if (ticks < 1) {
        fail("sustain tick count must be >= 1");
        return;
      }
      rule.condition.sustain_ticks = static_cast<int>(ticks);
      if (!match_keyword("ticks") && !match_keyword("tick")) {
        fail("expected 'ticks'");
        return;
      }
    }
    if (!match_keyword("reconfigure")) {
      fail("expected 'reconfigure'");
      return;
    }
    if (peek().kind == TokenKind::kIdentifier) rule.name = advance().text;
    if (!expect_punct("{")) return;
    while (!check_punct("}")) {
      if (at_end()) {
        fail("unterminated rule block", "unterminated-rule");
        return;
      }
      if (match_keyword("cooldown")) {
        if (!expect_integer("duration after 'cooldown'", rule.cooldown_us)) {
          return;
        }
        if (!expect_punct(";")) return;
        continue;
      }
      if (match_keyword("deadline")) {
        if (!expect_integer("duration after 'deadline'", rule.deadline_us)) {
          return;
        }
        if (!expect_punct(";")) return;
        continue;
      }
      AstRuleAction action;
      if (!parse_rule_action(action)) return;
      rule.actions.push_back(std::move(action));
    }
    advance();  // }
    if (rule.actions.empty()) {
      fail("rule block declares no actions");
      return;
    }
    config.rules.push_back(std::move(rule));
  }

  // event <name>  |  metric[(subject)] CMP number
  bool parse_condition(AstCondition& cond) {
    cond.loc = peek().loc;
    if (match_keyword("event")) {
      cond.is_event = true;
      return expect_identifier("event name", cond.event);
    }
    if (!expect_identifier("metric name", cond.metric)) return false;
    if (match_punct("(")) {
      if (!expect_identifier("metric argument", cond.metric_subject)) {
        return false;
      }
      if (!expect_punct(")")) return false;
    }
    if (peek().kind != TokenKind::kCompare) {
      return fail("expected a comparison operator (<, <=, >, >=, ==, !=)");
    }
    cond.compare = compare_from(advance().text);
    const Token& t = peek();
    if (t.kind == TokenKind::kInteger) {
      cond.threshold = static_cast<double>(advance().int_value);
    } else if (t.kind == TokenKind::kFloat) {
      cond.threshold = advance().float_value;
    } else {
      return fail("expected a numeric threshold");
    }
    return true;
  }

  //   add name: Type on node;
  //   remove inst;
  //   replace inst with Type [as name];
  //   migrate inst to node;
  //   rebind inst.port -> connector;
  //   reroute inst to replica;
  bool parse_rule_action(AstRuleAction& action) {
    action.loc = peek().loc;
    if (match_keyword("add")) {
      action.kind = AstRuleAction::Kind::kAdd;
      if (!expect_identifier("new instance name", action.name)) return false;
      if (!expect_punct(":")) return false;
      if (!expect_identifier("component type", action.type)) return false;
      if (!match_keyword("on")) return fail("expected 'on <node>'");
      if (!expect_identifier("node name", action.node)) return false;
    } else if (match_keyword("remove")) {
      action.kind = AstRuleAction::Kind::kRemove;
      if (!expect_identifier("instance name", action.instance)) return false;
    } else if (match_keyword("replace")) {
      action.kind = AstRuleAction::Kind::kReplace;
      if (!expect_identifier("instance name", action.instance)) return false;
      if (!match_keyword("with")) return fail("expected 'with <Type>'");
      if (!expect_identifier("component type", action.type)) return false;
      if (match_keyword("as")) {
        if (!expect_identifier("new instance name", action.name)) return false;
      }
    } else if (match_keyword("migrate")) {
      action.kind = AstRuleAction::Kind::kMigrate;
      if (!expect_identifier("instance name", action.instance)) return false;
      if (!match_keyword("to")) return fail("expected 'to <node>'");
      if (!expect_identifier("node name", action.node)) return false;
    } else if (match_keyword("rebind")) {
      action.kind = AstRuleAction::Kind::kRebind;
      std::string source;
      if (!expect_identifier("rebind source (instance.port)", source)) {
        return false;
      }
      const auto parts = util::split(source, '.');
      if (parts.size() != 2 || parts[0].empty() || parts[1].empty()) {
        return fail("rebind source must be 'instance.port'");
      }
      action.instance = parts[0];
      action.port = parts[1];
      if (peek().kind != TokenKind::kArrow) return fail("expected '->'");
      advance();
      if (!expect_identifier("connector name", action.connector)) return false;
    } else if (match_keyword("reroute")) {
      action.kind = AstRuleAction::Kind::kReroute;
      if (!expect_identifier("instance name", action.instance)) return false;
      if (!match_keyword("to")) return fail("expected 'to <replica>'");
      if (!expect_identifier("replica instance", action.replica)) return false;
    } else {
      return fail(
          "expected a reconfiguration action "
          "(add/remove/replace/migrate/rebind/reroute), 'cooldown' or "
          "'deadline'");
    }
    return expect_punct(";");
  }

  // --- goals & scenarios --------------------------------------------------

  // goal name { latency conn <= 5ms; replicas Type >= 2; place inst on node; }
  void parse_goal(Configuration& config) {
    AstGoal goal;
    goal.loc = peek().loc;
    advance();  // goal
    if (!expect_identifier("goal name", goal.name)) return;
    if (!expect_punct("{")) return;
    while (!check_punct("}")) {
      if (at_end()) {
        fail("unterminated goal block", "unterminated-goal");
        return;
      }
      if (match_keyword("latency")) {
        AstQosBound bound;
        bound.loc = peek().loc;
        if (!expect_identifier("connector name", bound.connector)) return;
        if (peek().kind != TokenKind::kCompare ||
            (peek().text != "<=" && peek().text != ">=")) {
          fail("expected '<=' or '>=' latency bound");
          return;
        }
        bound.upper = advance().text == "<=";
        if (!expect_integer("duration bound (e.g. 5ms)", bound.latency_us)) {
          return;
        }
        if (!expect_punct(";")) return;
        goal.qos.push_back(std::move(bound));
      } else if (match_keyword("replicas")) {
        AstReplicaBound bound;
        bound.loc = peek().loc;
        if (!expect_identifier("component type", bound.type)) return;
        if (peek().kind != TokenKind::kCompare) {
          fail("expected a comparison operator");
          return;
        }
        bound.compare = compare_from(advance().text);
        std::int64_t count = 0;
        if (!expect_integer("replica count", count)) return;
        bound.count = static_cast<int>(count);
        if (!expect_punct(";")) return;
        goal.replicas.push_back(std::move(bound));
      } else if (match_keyword("place")) {
        AstPlacement placement;
        placement.loc = peek().loc;
        if (!expect_identifier("instance name", placement.instance)) return;
        if (!match_keyword("on")) {
          fail("expected 'on <node>'");
          return;
        }
        if (!expect_identifier("node name", placement.node)) return;
        if (!expect_punct(";")) return;
        goal.placements.push_back(std::move(placement));
      } else {
        fail("expected 'latency', 'replicas' or 'place'");
        return;
      }
    }
    advance();  // }
    config.goals.push_back(std::move(goal));
  }

  // scenario name { description "..."; goal g; fault "..."; load "...";
  //                 duration D; }
  void parse_scenario(Configuration& config) {
    AstScenario scenario;
    scenario.loc = peek().loc;
    advance();  // scenario
    if (!expect_identifier("scenario name", scenario.name)) return;
    if (!expect_punct("{")) return;
    while (!check_punct("}")) {
      if (at_end()) {
        fail("unterminated scenario block", "unterminated-scenario");
        return;
      }
      if (match_keyword("description")) {
        if (peek().kind != TokenKind::kString) {
          fail("expected a string description");
          return;
        }
        scenario.description = advance().text;
        if (!expect_punct(";")) return;
      } else if (match_keyword("goal")) {
        std::string goal;
        if (!expect_identifier("goal name", goal)) return;
        scenario.goals.push_back(std::move(goal));
        if (!expect_punct(";")) return;
      } else if (match_keyword("fault")) {
        const SourceLoc loc = peek().loc;
        if (peek().kind != TokenKind::kString) {
          fail("expected a quoted fault line");
          return;
        }
        scenario.faults.emplace_back(advance().text, loc);
        if (!expect_punct(";")) return;
      } else if (match_keyword("load")) {
        const SourceLoc loc = peek().loc;
        if (peek().kind != TokenKind::kString) {
          fail("expected a quoted load-phase line");
          return;
        }
        scenario.loads.emplace_back(advance().text, loc);
        if (!expect_punct(";")) return;
      } else if (match_keyword("duration")) {
        if (!expect_integer("duration (e.g. 10s)", scenario.duration_us)) {
          return;
        }
        if (!expect_punct(";")) return;
      } else {
        fail("expected 'description', 'goal', 'fault', 'load' or 'duration'");
        return;
      }
    }
    advance();  // }
    config.scenarios.push_back(std::move(scenario));
  }

  // --- path properties ----------------------------------------------------

  // property name { always <pred>; eventually <pred>; reverts rule; }
  // (`invariant` is an accepted synonym for `property`.)
  void parse_property(Configuration& config) {
    AstProperty prop;
    prop.loc = peek().loc;
    advance();  // property | invariant
    if (!expect_identifier("property name", prop.name)) return;
    if (!expect_punct("{")) return;
    while (!check_punct("}")) {
      if (at_end()) {
        fail("unterminated property block", "unterminated-property");
        return;
      }
      AstPropertyClause clause;
      clause.loc = peek().loc;
      if (match_keyword("always")) {
        clause.kind = AstPropertyClause::Kind::kAlways;
        if (!parse_predicate(clause.pred)) return;
      } else if (match_keyword("eventually")) {
        clause.kind = AstPropertyClause::Kind::kEventually;
        if (!parse_predicate(clause.pred)) return;
      } else if (match_keyword("reverts")) {
        clause.kind = AstPropertyClause::Kind::kReverts;
        if (!expect_identifier("rule name after 'reverts'", clause.rule)) {
          return;
        }
      } else {
        fail("expected 'always', 'eventually' or 'reverts'");
        return;
      }
      if (!expect_punct(";")) return;
      prop.clauses.push_back(std::move(clause));
    }
    advance();  // }
    if (prop.clauses.empty()) {
      fail("property block declares no clauses");
      return;
    }
    config.properties.push_back(std::move(prop));
  }

  //   [not] exists(inst) | routed(conn) | running(inst, Type)
  //   replicas(Type) CMP N      (negation not allowed — use the dual CMP)
  bool parse_predicate(AstPredicate& pred) {
    pred.loc = peek().loc;
    if (match_keyword("not")) pred.negated = true;
    std::string head;
    if (!expect_identifier("a predicate (exists/routed/running/replicas)",
                          head)) {
      return false;
    }
    if (head == "exists") {
      pred.kind = AstPredicate::Kind::kExists;
    } else if (head == "routed") {
      pred.kind = AstPredicate::Kind::kRouted;
    } else if (head == "running") {
      pred.kind = AstPredicate::Kind::kRunning;
    } else if (head == "replicas") {
      pred.kind = AstPredicate::Kind::kReplicas;
    } else {
      return fail("unknown predicate '" + head +
                  "' (expected exists/routed/running/replicas)");
    }
    if (!expect_punct("(")) return false;
    const char* subject_what =
        pred.kind == AstPredicate::Kind::kRouted     ? "connector name"
        : pred.kind == AstPredicate::Kind::kReplicas ? "component type"
                                                     : "instance name";
    if (!expect_identifier(subject_what, pred.subject)) return false;
    if (pred.kind == AstPredicate::Kind::kRunning) {
      if (!expect_punct(",")) return false;
      if (!expect_identifier("implementation type", pred.type)) return false;
    }
    if (!expect_punct(")")) return false;
    if (pred.kind == AstPredicate::Kind::kReplicas) {
      if (pred.negated) {
        return fail("'not replicas(...)' is not supported; "
                    "negate the comparison instead");
      }
      if (peek().kind != TokenKind::kCompare) {
        return fail("expected a comparison operator after replicas(...)");
      }
      pred.compare = compare_from(advance().text);
      std::int64_t count = 0;
      if (!expect_integer("replica count", count)) return false;
      if (count < 0) return fail("replica count must be >= 0");
      pred.count = static_cast<int>(count);
    }
    return true;
  }

  std::vector<Token> tokens_;
  Diagnostics& diags_;
  std::size_t pos_ = 0;
  bool failed_ = false;
};

}  // namespace

Configuration parse_ast(std::string_view source, Diagnostics& diags) {
  std::vector<Token> tokens = lex(source, diags);
  if (!diags.ok()) return {};
  Parser parser(std::move(tokens), diags);
  return parser.run();
}

}  // namespace aars::adl
