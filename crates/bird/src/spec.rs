//! Enterprise domain specification and seeded data generation.
//!
//! The BIRD benchmark spans 95 real databases; this substitute generates
//! several *enterprise star-schema* domains in the mold of the paper's
//! running example (a sports holding company with `SPORTS_FINANCIALS` and
//! `SPORTS_VIEWERSHIP` fact tables, an ownership flag behind "our", and
//! acronym metrics like QoQFP and RPV). Each domain instantiates the same
//! shape with its own vocabulary, so task templates are written once.

use genedit_knowledge::Intent;
use genedit_sql::catalog::{Column, Database, Table};
use genedit_sql::value::{DataType, Date, Value};
use genedit_telemetry::hash::fnv1a64;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Static description of one enterprise domain.
#[derive(Debug, Clone)]
pub struct DomainSpec {
    /// Short key, e.g. `sports`.
    pub key: &'static str,
    /// Database name.
    pub db_name: &'static str,
    /// Word for the entities in questions ("sports organisations").
    pub entity_word: &'static str,
    /// Word for the primary metric in questions ("revenue").
    pub metric_word: &'static str,
    /// Word for the secondary metric ("viewership").
    pub metric2_word: &'static str,

    pub entity_table: &'static str,
    /// Entity name column (join key, as in the paper's `ORG_NAME`).
    pub entity_col: &'static str,
    pub region_col: &'static str,
    pub flag_col: &'static str,
    /// Flag value marking "our" entities (the paper's `COC`).
    pub flag_val: &'static str,
    pub flag_other: &'static str,
    pub category_col: &'static str,

    pub fact1_table: &'static str,
    pub fact1_col: &'static str,
    pub fact1_date: &'static str,
    pub fact2_table: &'static str,
    pub fact2_col: &'static str,
    pub fact2_date: &'static str,

    /// An unrelated table that acts as a schema distractor.
    pub distractor_table: &'static str,

    /// Domain term for "our entities" (instruction-only knowledge).
    pub our_term: &'static str,
    pub our_meaning: &'static str,
    /// Ratio metric term = fact1 / fact2 (instruction + example).
    pub ratio_term: &'static str,
    pub ratio_meaning: &'static str,
    /// Quarter-over-quarter term (instruction-only; implies the `-1 *`
    /// ranking convention from the paper's Fig. 2 instruction).
    pub qoq_term: &'static str,
    pub qoq_meaning: &'static str,

    pub regions: &'static [&'static str],
    pub categories: &'static [&'static str],
    pub entity_names: &'static [&'static str],
}

impl DomainSpec {
    /// Intent keys for this domain.
    pub fn performance_intent(&self) -> String {
        format!("{}_performance", self.key)
    }

    pub fn engagement_intent(&self) -> String {
        format!("{}_engagement", self.key)
    }

    pub fn directory_intent(&self) -> String {
        format!("{}_directory", self.key)
    }

    pub fn intents(&self) -> Vec<Intent> {
        vec![
            Intent::new(
                self.performance_intent(),
                format!("{} performance", self.metric_word),
                format!(
                    "Questions about {} and {} trends of {}",
                    self.metric_word, self.qoq_term, self.entity_word
                ),
            ),
            Intent::new(
                self.engagement_intent(),
                format!("{} numbers", self.metric2_word),
                format!(
                    "Questions about {} of {}",
                    self.metric2_word, self.entity_word
                ),
            ),
            Intent::new(
                self.directory_intent(),
                format!("{} directory", self.entity_word),
                format!("Lookups and listings of {}", self.entity_word),
            ),
        ]
    }

    /// `(intent, table)` associations for schema grouping.
    pub fn intent_tables(&self) -> Vec<(String, String)> {
        vec![
            (self.performance_intent(), self.fact1_table.to_string()),
            (self.performance_intent(), self.entity_table.to_string()),
            (self.engagement_intent(), self.fact2_table.to_string()),
            (self.engagement_intent(), self.entity_table.to_string()),
            (self.directory_intent(), self.entity_table.to_string()),
        ]
    }
}

/// Generate the seeded database for a domain: entity dimension, two
/// monthly fact tables (2022-01 … 2023-12), and a distractor table.
pub fn generate_database(spec: &DomainSpec, seed: u64) -> Database {
    let mut rng = StdRng::seed_from_u64(seed ^ fnv1a64(spec.key.as_bytes()));
    let mut db = Database::new(spec.db_name);

    let mut entities = Table::new(
        spec.entity_table,
        vec![
            Column::new(spec.entity_col, DataType::Text)
                .with_description(format!("name of the {}", spec.entity_word)),
            Column::new(spec.region_col, DataType::Text).with_description("operating region"),
            Column::new(spec.flag_col, DataType::Text)
                .with_description(format!("{} = {}", spec.flag_val, spec.our_meaning)),
            Column::new(spec.category_col, DataType::Text),
            Column::new("FOUNDED_YEAR", DataType::Integer),
        ],
    )
    .with_description(format!("directory of {}", spec.entity_word));

    // Deterministic entity attributes: spread regions/flags so every
    // (region, flag) combination is populated — term corruptions must
    // change results to be observable.
    let names: Vec<&str> = spec.entity_names.to_vec();
    let mut rows = Vec::new();
    for (i, name) in names.iter().enumerate() {
        // region (mod 4) and category (mod 3) are coprime cycles, so the
        // 20 entities cover (almost) every region × category × flag cell —
        // task templates slice on all three.
        let region = spec.regions[i % spec.regions.len()];
        let flag = if i % 5 < 3 {
            spec.flag_val
        } else {
            spec.flag_other
        };
        let category = spec.categories[i % spec.categories.len()];
        let founded = 1950 + rng.gen_range(0..70);
        rows.push((i, name.to_string(), region, flag, category, founded));
        entities
            .push_row(vec![
                (*name).into(),
                region.into(),
                flag.into(),
                category.into(),
                Value::Integer(founded as i64),
            ])
            .expect("arity");
    }
    db.add_table(entities).expect("fresh db");

    let mut fact1 = Table::new(
        spec.fact1_table,
        vec![
            Column::new(spec.entity_col, DataType::Text),
            Column::new(spec.fact1_date, DataType::Date),
            Column::new(spec.fact1_col, DataType::Integer)
                .with_description(format!("monthly {}", spec.metric_word)),
            Column::new(spec.region_col, DataType::Text),
            Column::new(spec.flag_col, DataType::Text),
        ],
    )
    .with_description(format!("monthly {} facts", spec.metric_word));
    let mut fact2 = Table::new(
        spec.fact2_table,
        vec![
            Column::new(spec.entity_col, DataType::Text),
            Column::new(spec.fact2_date, DataType::Date),
            Column::new(spec.fact2_col, DataType::Integer)
                .with_description(format!("monthly {}", spec.metric2_word)),
            Column::new(spec.region_col, DataType::Text),
            Column::new(spec.flag_col, DataType::Text),
        ],
    )
    .with_description(format!("monthly {} facts", spec.metric2_word));

    for (i, name, region, flag, _cat, _f) in &rows {
        // A fixed slice of entities lacks fact2 coverage entirely, so
        // "no recorded {metric2}" questions have non-trivial answers —
        // including at least one flagged and one unflagged entity in the
        // region the templates query (indices 12 and 8), so the "our"
        // corruption stays observable on those tasks.
        let has_fact2 = !(*i % 5 == 2 || *i == 8);
        for year in [2022, 2023] {
            for month in 1..=12u8 {
                let date = Date::new(year, month, 1).expect("valid date");
                let base = 50 + (fnv1a64(name.as_bytes()) % 400) as i64;
                let v1 = base + rng.gen_range(0..250);
                fact1
                    .push_row(vec![
                        name.clone().into(),
                        Value::Date(date),
                        Value::Integer(v1),
                        (*region).into(),
                        (*flag).into(),
                    ])
                    .expect("arity");
                if has_fact2 {
                    let v2 = 1_000 + rng.gen_range(0..90_000);
                    fact2
                        .push_row(vec![
                            name.clone().into(),
                            Value::Date(date),
                            Value::Integer(v2),
                            (*region).into(),
                            (*flag).into(),
                        ])
                        .expect("arity");
                }
            }
        }
    }
    db.add_table(fact1).expect("fresh db");
    db.add_table(fact2).expect("fresh db");

    let mut distractor = Table::new(
        spec.distractor_table,
        vec![
            Column::new(spec.entity_col, DataType::Text),
            Column::new("PERSON_NAME", DataType::Text),
            Column::new("ROLE", DataType::Text),
        ],
    )
    .with_description("staff roster (rarely relevant to analytics questions)");
    for (_, name, _, _, _, _) in rows.iter().take(8) {
        for role in ["manager", "analyst"] {
            distractor
                .push_row(vec![
                    name.clone().into(),
                    format!("person_{}", rng.gen_range(0..1000)).into(),
                    role.into(),
                ])
                .expect("arity");
        }
    }
    db.add_table(distractor).expect("fresh db");
    db
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domains::SPORTS;
    use genedit_sql::execute_sql;

    #[test]
    fn database_has_all_tables() {
        let db = generate_database(&SPORTS, 42);
        assert!(db.table(SPORTS.entity_table).is_some());
        assert!(db.table(SPORTS.fact1_table).is_some());
        assert!(db.table(SPORTS.fact2_table).is_some());
        assert!(db.table(SPORTS.distractor_table).is_some());
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate_database(&SPORTS, 42);
        let b = generate_database(&SPORTS, 42);
        let q = format!(
            "SELECT SUM({}) FROM {}",
            SPORTS.fact1_col, SPORTS.fact1_table
        );
        let ra = execute_sql(&a, &q).unwrap();
        let rb = execute_sql(&b, &q).unwrap();
        assert!(ra.ex_equal(&rb));
        let c = generate_database(&SPORTS, 43);
        let rc = execute_sql(&c, &q).unwrap();
        assert!(!ra.ex_equal(&rc), "different seeds should differ");
    }

    #[test]
    fn flag_filter_changes_results() {
        // The "our" corruption (dropping the flag filter) must change the
        // answer, or the corruption would be unobservable.
        let db = generate_database(&SPORTS, 42);
        let ours = execute_sql(
            &db,
            &format!(
                "SELECT SUM({c}) FROM {t} WHERE {f} = '{v}'",
                c = SPORTS.fact1_col,
                t = SPORTS.fact1_table,
                f = SPORTS.flag_col,
                v = SPORTS.flag_val
            ),
        )
        .unwrap();
        let all = execute_sql(
            &db,
            &format!(
                "SELECT SUM({c}) FROM {t}",
                c = SPORTS.fact1_col,
                t = SPORTS.fact1_table
            ),
        )
        .unwrap();
        assert!(!ours.ex_equal(&all));
    }

    #[test]
    fn every_region_has_both_flags() {
        let db = generate_database(&SPORTS, 42);
        for region in SPORTS.regions {
            for flag in [SPORTS.flag_val, SPORTS.flag_other] {
                let rs = execute_sql(
                    &db,
                    &format!(
                        "SELECT COUNT(*) FROM {t} WHERE {r} = '{region}' AND {f} = '{flag}'",
                        t = SPORTS.entity_table,
                        r = SPORTS.region_col,
                        f = SPORTS.flag_col
                    ),
                )
                .unwrap();
                assert!(rs.rows[0][0].as_i64().unwrap() > 0, "{region}/{flag} empty");
            }
        }
    }

    #[test]
    fn some_entities_lack_fact2() {
        let db = generate_database(&SPORTS, 42);
        let rs = execute_sql(
            &db,
            &format!(
                "SELECT COUNT(*) FROM {e} WHERE {n} NOT IN (SELECT {n} FROM {f2})",
                e = SPORTS.entity_table,
                n = SPORTS.entity_col,
                f2 = SPORTS.fact2_table
            ),
        )
        .unwrap();
        assert!(rs.rows[0][0].as_i64().unwrap() > 0);
    }

    #[test]
    fn schema_descriptions_present() {
        let db = generate_database(&SPORTS, 42);
        let t = db.table(SPORTS.fact1_table).unwrap();
        assert!(t.description.as_deref().unwrap().contains("monthly"));
    }
}
