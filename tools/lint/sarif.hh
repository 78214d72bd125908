/**
 * @file
 * SARIF 2.1.0 output and the findings baseline.
 *
 * The SARIF document is byte-deterministic: fixed key order, no
 * timestamps, no absolute paths — two runs over the same tree produce
 * identical bytes, which CI checks by running the analyzer twice.
 *
 * The baseline file (`.lint-baseline` at the repo root) lists known
 * findings to tolerate during a migration, one per line in the
 * line-number-insensitive form `file: [R#] message` (`#` comments and
 * blank lines allowed). Baselined findings still appear in the SARIF
 * document — marked `suppressions: [{kind: "external"}]` — but do not
 * fail the run. The repo ships with an empty baseline: the tree is
 * clean under every rule in kRules.
 */

#pragma once

#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "lint.hh"

namespace tvarak::lint {

/** Line-number-insensitive identity: `file: [R#] message`. */
std::string baselineKey(const Finding &f);

/** Parse a baseline file; throws std::runtime_error if unreadable. */
std::set<std::string> loadBaseline(const std::filesystem::path &file);

/**
 * Render @p findings (already sorted) as a SARIF 2.1.0 document.
 * Findings whose baselineKey appears in @p baselined are emitted with
 * an external suppression.
 */
std::string toSarif(const std::vector<Finding> &findings,
                    const std::set<std::string> &baselined);

}  // namespace tvarak::lint
