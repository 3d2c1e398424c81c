//! The benchmark's inputs: CENSUS-shaped OCC-5 microdata and, for the
//! serve workloads, its l = 10 release, written as the text files the
//! measured process loads. Generation runs in a child process, so its
//! memory and time stay out of the measured run.

use crate::Workload;
use anatomy_core::{anatomize, qit_to_csv, st_to_csv, AnatomizeConfig, AnatomizedTables};
use anatomy_data::census::{census_schema, generate_census, CensusConfig, OCCUPATION};
use anatomy_data::occ_sal::occ_microdata;
use anatomy_tables::{csv, Schema};
use std::path::Path;

/// QI attributes of OCC-5.
pub const D: usize = 5;
/// The diversity parameter of every workload (the paper's Fig. 4 value).
pub const L: usize = 10;

pub const DATA: &str = "data.csv";
pub const QIT: &str = "qit.csv";
pub const ST: &str = "st.csv";

type Result<T> = std::result::Result<T, Box<dyn std::error::Error>>;

/// Schema of the data CSV: the five QI attributes, then Occupation.
pub fn data_schema() -> Schema {
    let cols: Vec<usize> = (0..D).chain([OCCUPATION]).collect();
    census_schema()
        .project(&cols)
        .expect("OCC-5 columns exist in the CENSUS schema")
}

/// Schema of the QIT's attributes.
pub fn qi_schema() -> Schema {
    census_schema()
        .project(&(0..D).collect::<Vec<_>>())
        .expect("QI columns exist in the CENSUS schema")
}

/// The seed the release of a serve workload is published with.
pub fn release_seed(seed: u64) -> u64 {
    seed ^ 0x5EED_0F2E
}

/// Write the inputs of `workload` for `seed` into `dir`.
pub fn generate(workload: Workload, seed: u64, dir: &Path) -> Result<()> {
    let census = generate_census(&CensusConfig::new(workload.n()).with_seed(seed));
    let md = occ_microdata(census, D)?;
    let cols: Vec<usize> = md
        .qi_columns()
        .iter()
        .copied()
        .chain([md.sensitive_column()])
        .collect();
    let projected = md.table().project(&cols)?;
    if workload != Workload::ServeDrilldown {
        std::fs::write(dir.join(DATA), csv::to_string(&projected))?;
    }
    if workload != Workload::PublishSharded {
        let cfg = AnatomizeConfig::new(L).with_seed(release_seed(seed));
        let tables = AnatomizedTables::publish(&md, &anatomize(&md, &cfg)?, L)?;
        std::fs::write(dir.join(QIT), qit_to_csv(&tables))?;
        std::fs::write(dir.join(ST), st_to_csv(&tables))?;
    }
    Ok(())
}
