#include "analysis/scenario_lint.h"

#include <algorithm>

#include "fault/scenario.h"
#include "util/strings.h"

namespace aars::analysis {

namespace {

bool has_link(const ArchitectureModel& model, const std::string& a,
              const std::string& b) {
  return std::any_of(model.links.begin(), model.links.end(),
                     [&](const ModelLink& l) {
                       return (l.from == a && l.to == b) ||
                              (l.from == b && l.to == a);
                     });
}

void lint_line(const std::string& line, int line_no,
               const ArchitectureModel* model, adl::Diagnostics& report) {
  const auto parsed = fault::FaultScenario::parse(line);
  if (!parsed.ok()) {
    report.add(adl::Severity::kError, "scenario-syntax", "",
               parsed.error().message(), line_no);
    return;
  }
  if (parsed.value().faults().empty()) return;  // blank / comment
  const fault::FaultSpec& spec = parsed.value().faults().front();

  if (spec.duration <= 0) {
    report.add(adl::Severity::kWarning, "zero-duration", spec.subject(),
               "fault heals the instant it starts; it will have no effect",
               line_no);
  }
  if (spec.kind == fault::FaultKind::kLinkLoss &&
      (spec.loss_probability < 0.0 || spec.loss_probability > 1.0)) {
    report.add(adl::Severity::kError, "loss-out-of-range", spec.subject(),
               util::format("loss probability %.3f is outside [0, 1]",
                            spec.loss_probability),
               line_no);
  }

  // fail-step targets the reconfiguration path, not the topology: nothing
  // to check against the model.
  if (spec.kind == fault::FaultKind::kStepFault) return;

  if (model == nullptr) return;
  if (spec.kind == fault::FaultKind::kHostCrash) {
    if (!model->has_node(spec.host)) {
      report.add(adl::Severity::kError, "unknown-host", spec.host,
                 "scenario crashes a host the architecture does not declare",
                 line_no);
    }
  } else {
    for (const std::string& end : {spec.link_a, spec.link_b}) {
      if (!model->has_node(end)) {
        report.add(adl::Severity::kError, "unknown-host", end,
                   "link endpoint is not a declared node", line_no);
      }
    }
    if (model->has_node(spec.link_a) && model->has_node(spec.link_b) &&
        !has_link(*model, spec.link_a, spec.link_b)) {
      report.add(adl::Severity::kError, "unknown-link",
                 spec.link_a + "-" + spec.link_b,
                 "no link between these nodes in the architecture", line_no);
    }
  }
}

adl::Diagnostics lint(const std::string& text, const ArchitectureModel* model) {
  adl::Diagnostics report;
  int line_no = 0;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t end = text.find('\n', start);
    const std::string line =
        text.substr(start, end == std::string::npos ? end : end - start);
    ++line_no;
    if (!util::trim(line).empty()) {
      lint_line(line, line_no, model, report);
    }
    if (end == std::string::npos) break;
    start = end + 1;
  }
  return report;
}

}  // namespace

adl::Diagnostics lint_scenario(const std::string& text) {
  return lint(text, nullptr);
}

adl::Diagnostics lint_scenario(const std::string& text,
                               const ArchitectureModel& model) {
  return lint(text, &model);
}

}  // namespace aars::analysis
