//! Textual assertion specifications.
//!
//! Assertions can be written next to the program text instead of being
//! assembled in Rust — the analogue of the paper's pragma-level assertion
//! statement:
//!
//! ```text
//! assume is_pure(T1), is_pure(T2) guarantee equal(T1, T2)
//! ```
//!
//! Grammar (case-insensitive keywords):
//!
//! ```text
//! spec       := ["assume" clause ("," clause)*] "guarantee" clause
//! clause     := name "(" arg ("," arg)* ")"
//! arg        := "in" | "T"<digits> | number
//! name       := is_pure | is_mixed | prob_at_least | expectation_z_above
//!             | expectation_z_below | equal | not_equal | within
//!             | phase_diff
//! ```
//!
//! Single-state clauses in the `assume` position become assumptions;
//! relational clauses are only valid in the `guarantee` position (matching
//! Definition 1's shape).

use morph_qprog::TracepointId;

use crate::assertion::{AssumeGuarantee, Guarantee, StateRef};
use crate::predicate::{RelationPredicate, StatePredicate};

/// Error from parsing an assertion specification.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseSpecError {
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for ParseSpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "assertion spec error: {}", self.message)
    }
}

impl std::error::Error for ParseSpecError {}

fn err(message: impl Into<String>) -> ParseSpecError {
    ParseSpecError {
        message: message.into(),
    }
}

/// Parses an assertion specification string into an [`AssumeGuarantee`].
///
/// # Errors
///
/// Returns [`ParseSpecError`] on malformed syntax, unknown predicates, or
/// shape violations (e.g. a relational clause in the assume position).
///
/// # Examples
///
/// ```
/// use morphqpv::parse_assertion;
///
/// let spec = parse_assertion("assume is_pure(T1) guarantee equal(T1, T2)")?;
/// assert_eq!(spec.assumptions().len(), 1);
/// # Ok::<(), morphqpv::ParseSpecError>(())
/// ```
pub fn parse_assertion(text: &str) -> Result<AssumeGuarantee, ParseSpecError> {
    let lowered = text.trim();
    let (assume_part, guarantee_part) = split_keywords(lowered)?;

    let mut assertion = AssumeGuarantee::new();
    if let Some(assumes) = assume_part {
        for clause_text in split_top_level_commas(assumes) {
            let clause = parse_clause(&clause_text)?;
            match clause {
                Clause::Single(state, pred) => {
                    assertion = assertion.assume(state, pred);
                }
                Clause::Relation(..) => {
                    return Err(err(format!(
                        "relational clause {clause_text:?} not allowed in assume position"
                    )));
                }
            }
        }
    }
    let clauses = split_top_level_commas(guarantee_part);
    if clauses.len() != 1 {
        return Err(err("guarantee must be exactly one clause"));
    }
    let assertion = match parse_clause(&clauses[0])? {
        Clause::Single(state, pred) => assertion.guarantee(Guarantee::Single(state, pred)),
        Clause::Relation(a, b, pred) => assertion.guarantee(Guarantee::Relation(a, b, pred)),
    };
    Ok(assertion)
}

fn split_keywords(text: &str) -> Result<(Option<&str>, &str), ParseSpecError> {
    let lower = text.to_ascii_lowercase();
    let g_pos = lower
        .find("guarantee")
        .ok_or_else(|| err("missing 'guarantee' keyword"))?;
    let head = text[..g_pos].trim();
    let tail = text[g_pos + "guarantee".len()..].trim();
    if tail.is_empty() {
        return Err(err("empty guarantee clause"));
    }
    if head.is_empty() {
        return Ok((None, tail));
    }
    let head_lower = head.to_ascii_lowercase();
    let assumes = head_lower
        .strip_prefix("assume")
        .ok_or_else(|| err("text before 'guarantee' must start with 'assume'"))?;
    let offset = head.len() - assumes.len();
    Ok((Some(head[offset..].trim()), tail))
}

fn split_top_level_commas(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut start = 0usize;
    for (i, ch) in text.char_indices() {
        match ch {
            '(' => depth += 1,
            ')' => depth = depth.saturating_sub(1),
            ',' if depth == 0 => {
                out.push(text[start..i].trim().to_string());
                start = i + 1;
            }
            _ => {}
        }
    }
    let last = text[start..].trim();
    if !last.is_empty() {
        out.push(last.to_string());
    }
    out
}

enum Clause {
    Single(StateRef, StatePredicate),
    Relation(StateRef, StateRef, RelationPredicate),
}

fn parse_clause(text: &str) -> Result<Clause, ParseSpecError> {
    let open = text
        .find('(')
        .ok_or_else(|| err(format!("clause {text:?} missing '('")))?;
    if !text.trim_end().ends_with(')') {
        return Err(err(format!("clause {text:?} missing ')'")));
    }
    let name = text[..open].trim().to_ascii_lowercase();
    let inner = &text[open + 1..text.trim_end().len() - 1];
    let args: Vec<String> = split_top_level_commas(inner);

    let state = |i: usize| -> Result<StateRef, ParseSpecError> {
        parse_state(
            args.get(i)
                .ok_or_else(|| err(format!("{name} missing argument {i}")))?,
        )
    };
    let number = |i: usize| -> Result<f64, ParseSpecError> {
        args.get(i)
            .ok_or_else(|| err(format!("{name} missing numeric argument {i}")))?
            .parse()
            .map_err(|_| err(format!("{name}: argument {i} is not a number")))
    };

    match name.as_str() {
        "is_pure" => Ok(Clause::Single(state(0)?, StatePredicate::IsPure)),
        "prob_at_least" => Ok(Clause::Single(
            state(0)?,
            StatePredicate::ProbabilityAtLeast {
                basis: number(1)? as usize,
                p: number(2)?,
            },
        )),
        "expectation_z_above" | "expectation_z_below" => {
            let z = morph_qsim::matrices::z();
            let threshold = number(1)?;
            let pred = if name == "expectation_z_above" {
                StatePredicate::ExpectationAbove {
                    observable: z,
                    threshold,
                }
            } else {
                StatePredicate::ExpectationBelow {
                    observable: z,
                    threshold,
                }
            };
            Ok(Clause::Single(state(0)?, pred))
        }
        "equal" => Ok(Clause::Relation(
            state(0)?,
            state(1)?,
            RelationPredicate::Equal,
        )),
        "not_equal" => Ok(Clause::Relation(
            state(0)?,
            state(1)?,
            RelationPredicate::NotEqual {
                margin: number(2).unwrap_or(0.1),
            },
        )),
        "within" => Ok(Clause::Relation(
            state(0)?,
            state(1)?,
            RelationPredicate::Within {
                tolerance: number(2)?,
            },
        )),
        "phase_diff" => Ok(Clause::Relation(
            state(0)?,
            state(1)?,
            RelationPredicate::PhaseDifference {
                phase: number(2)?,
                tolerance: number(3).unwrap_or(0.1),
            },
        )),
        other => Err(err(format!("unknown predicate {other:?}"))),
    }
}

fn parse_state(text: &str) -> Result<StateRef, ParseSpecError> {
    let t = text.trim().to_ascii_lowercase();
    if t == "in" || t == "input" {
        return Ok(StateRef::Input);
    }
    if let Some(id) = t.strip_prefix('t') {
        let id: u32 = id
            .parse()
            .map_err(|_| err(format!("invalid tracepoint reference {text:?}")))?;
        return Ok(StateRef::Tracepoint(TracepointId(id)));
    }
    Err(err(format!(
        "invalid state reference {text:?} (use 'in' or 'T<n>')"
    )))
}

/// Extracts assertion specs embedded in program text as
/// `// assert <spec>` comments, in order of appearance.
///
/// # Errors
///
/// Returns the first spec that fails to parse.
pub fn assertions_from_source(source: &str) -> Result<Vec<AssumeGuarantee>, ParseSpecError> {
    let mut out = Vec::new();
    for line in source.lines() {
        if let Some(pos) = line.find("// assert ") {
            out.push(parse_assertion(&line[pos + "// assert ".len()..])?);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_teleportation_spec() {
        let a = parse_assertion("assume is_pure(T1), is_pure(T2) guarantee equal(T1, T2)").unwrap();
        assert_eq!(a.assumptions().len(), 2);
        assert!(matches!(
            a.guarantee_clause(),
            Guarantee::Relation(
                StateRef::Tracepoint(TracepointId(1)),
                StateRef::Tracepoint(TracepointId(2)),
                RelationPredicate::Equal
            )
        ));
    }

    #[test]
    fn parses_guarantee_only_spec() {
        let a = parse_assertion("guarantee within(T1, T2, 0.05)").unwrap();
        assert!(a.assumptions().is_empty());
        match a.guarantee_clause() {
            Guarantee::Relation(_, _, RelationPredicate::Within { tolerance }) => {
                assert!((tolerance - 0.05).abs() < 1e-12);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_input_reference_and_single_guarantee() {
        let a =
            parse_assertion("assume is_pure(in) guarantee expectation_z_above(T4, 0.0)").unwrap();
        assert_eq!(a.assumptions()[0].0, StateRef::Input);
        assert!(matches!(a.guarantee_clause(), Guarantee::Single(..)));
    }

    #[test]
    fn rejects_relation_in_assume() {
        let e = parse_assertion("assume equal(T1, T2) guarantee is_pure(T1)").unwrap_err();
        assert!(e.message.contains("not allowed in assume"));
    }

    #[test]
    fn rejects_unknown_predicate_and_bad_refs() {
        assert!(parse_assertion("guarantee frobnicate(T1)").is_err());
        assert!(parse_assertion("guarantee equal(T1, Q2)").is_err());
        assert!(parse_assertion("assume is_pure(T1)").is_err()); // no guarantee
        assert!(parse_assertion("guarantee equal(T1)").is_err()); // arity
    }

    #[test]
    fn phase_diff_defaults_tolerance() {
        let a = parse_assertion("guarantee phase_diff(T3, T4, 3.14159)").unwrap();
        match a.guarantee_clause() {
            Guarantee::Relation(_, _, RelationPredicate::PhaseDifference { tolerance, .. }) => {
                assert!((tolerance - 0.1).abs() < 1e-12);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn extracts_specs_from_program_comments() {
        let src = "\
qreg q[3];
T 1 q[0];
h q[0];
// assert assume is_pure(T1) guarantee equal(T1, T2)
cx q[0],q[1];
T 2 q[0];
// assert guarantee is_pure(T2)
";
        let specs = assertions_from_source(src).unwrap();
        assert_eq!(specs.len(), 2);
        assert_eq!(specs[0].assumptions().len(), 1);
        assert!(specs[1].assumptions().is_empty());
    }

    #[test]
    fn spec_verifies_end_to_end() {
        // Identity program: parse the spec from text and run it.
        use crate::verifier::Verifier;
        use rand::SeedableRng;
        let mut c = morph_qprog::Circuit::new(1);
        c.tracepoint(1, &[0]);
        c.h(0).h(0);
        c.tracepoint(2, &[0]);
        let spec = parse_assertion("assume is_pure(T1) guarantee equal(T1, T2)").unwrap();
        let report = Verifier::new(c)
            .input_qubits(&[0])
            .samples(4)
            .assert_that(spec)
            .try_run(&mut rand::rngs::StdRng::seed_from_u64(0), None)
            .unwrap();
        assert!(report.all_passed());
    }
}
