//! No attack is unreachable from the DSL or the generator: every
//! `AttackKind` variant (and every inject-point variant) is constructible
//! from scenario text by name, and appears in at least one scenario of
//! the default generated corpus.

use cres_attacks::catalog;
use cres_attacks::AttackKind;
use cres_scenario::{compile, generate, name_pool, GenKnobs};

/// Minimal scenario text scheduling one attack by name.
fn text_for(attack: &str) -> String {
    format!(
        "[scenario]\nname = \"probe\"\nduration = 500_000\n\n\
         [[stage]]\nattack = \"{attack}\"\nstart = 100_000\n"
    )
}

#[test]
fn every_attack_kind_is_constructible_from_the_dsl() {
    let mut kinds_seen = Vec::new();
    for name in name_pool() {
        let spec = compile(&text_for(name)).unwrap_or_else(|e| panic!("{name}: {e}"));
        let scenario = spec
            .materialise(&catalog::try_build)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(scenario.attacks.len(), 1, "{name}");
        let kind = catalog::kind_of(name).unwrap_or_else(|| panic!("{name} has no kind"));
        if !kinds_seen.contains(&kind) {
            kinds_seen.push(kind);
        }
    }
    assert_eq!(
        kinds_seen.len(),
        AttackKind::ALL.len(),
        "name pool must span every AttackKind variant"
    );
}

#[test]
fn unknown_names_are_rejected_at_compile_time() {
    let err = compile(&text_for("meltdown")).expect_err("must not compile");
    assert!(err.to_string().contains("meltdown"), "{err}");
}

#[test]
fn default_corpus_reaches_every_attack() {
    let corpus = generate(42, &GenKnobs::default());
    assert!(corpus.len() >= 100);
    for kind in AttackKind::ALL {
        let base = kind.name();
        assert!(
            corpus.iter().any(|doc| doc
                .stages
                .iter()
                .any(|s| catalog::kind_of(&s.attack) == Some(kind))),
            "no generated scenario exercises {base}"
        );
    }
    for variant in catalog::VARIANTS {
        assert!(
            corpus
                .iter()
                .any(|doc| doc.stages.iter().any(|s| s.attack == variant)),
            "no generated scenario exercises inject-point variant {variant}"
        );
    }
}
