//! Table I: hardware specifications (§V) and the property-matrix schema
//! (§IV.a).
//!
//! The hardware table is reproduced three ways: the paper's CPU, the
//! paper's GPU, and the *actual* substrate executing this reproduction
//! (the host CPU driving the `simt` virtual device) — making the
//! substitution of DESIGN.md §2 visible in the output. The occupancy
//! claim ("256 threads per block maintains 100 % occupancy") is verified
//! live against the Fermi occupancy calculator.

use simt::occupancy::occupancy;
use simt::DeviceProps;

use crate::report::Table;

/// The hardware table (paper Table I plus the substrate row).
pub fn hardware_table() -> Table {
    let mut t = Table::new(vec![
        "attribute",
        "paper CPU (i7-930)",
        "paper GPU (GTX 560 Ti)",
        "this substrate (host)",
    ]);
    let cpu = DeviceProps::i7_930();
    let gpu = DeviceProps::gtx_560_ti_448();
    let host = DeviceProps::host();
    let cores = |d: &DeviceProps| (d.sm_count * d.cores_per_sm).to_string();
    t.push_row(vec![
        "processor cores".into(),
        cores(&cpu),
        cores(&gpu),
        cores(&host),
    ]);
    t.push_row(vec![
        "clock (MHz)".to_string(),
        cpu.clock_mhz.to_string(),
        gpu.clock_mhz.to_string(),
        if host.clock_mhz == 0 {
            "n/a".into()
        } else {
            host.clock_mhz.to_string()
        },
    ]);
    t.push_row(vec![
        "memory (MiB)".to_string(),
        cpu.global_mem_mib.to_string(),
        gpu.global_mem_mib.to_string(),
        "host RAM".into(),
    ]);
    t.push_row(vec![
        "compute capability".to_string(),
        "—".into(),
        format!("{}.{}", gpu.compute_capability.0, gpu.compute_capability.1),
        "virtual (simt)".into(),
    ]);
    t
}

/// The property-matrix schema (paper Table I, second table).
pub fn property_schema() -> Table {
    let mut t = Table::new(vec!["field", "description", "this reproduction"]);
    for (f, d, r) in [
        ("ID", "identity of the pedestrian, 1 or 2", "props.id (u8)"),
        (
            "INDEX NO",
            "index into the property/scan matrices",
            "implicit (row number)",
        ),
        ("ROW", "present row position", "props.row (u16)"),
        ("COLUMN", "present column position", "props.col (u16)"),
        ("EMPTY", "unused", "dropped"),
        (
            "FUTURE ROW",
            "chosen next row, reset each step",
            "props.future_row (u16, NO_FUTURE sentinel)",
        ),
        (
            "FUTURE COLUMN",
            "chosen next column",
            "props.future_col (u16)",
        ),
        (
            "FRONT CELL",
            "contents of the forward cell",
            "simt DeviceState.front (u8); the host computes it in place",
        ),
    ] {
        t.push_row(vec![f, d, r]);
    }
    t
}

/// Verify the paper's occupancy claim on the Fermi property sheet;
/// returns the rendered verification table.
pub fn occupancy_check() -> Table {
    let fermi = DeviceProps::gtx_560_ti_448();
    let mut t = Table::new(vec![
        "threads/block",
        "regs/thread",
        "shared B",
        "active blocks/SM",
        "occupancy",
        "limiter",
    ]);
    for (threads, regs, shared) in [
        (256u32, 20u32, 2_324u32), // the movement kernel's footprint
        (256, 20, 8 * 1024),
        (128, 20, 2_324),
        (512, 20, 2_324),
        (256, 63, 0),
    ] {
        match occupancy(&fermi, threads, regs, shared) {
            Some(o) => t.push_row(vec![
                threads.to_string(),
                regs.to_string(),
                shared.to_string(),
                o.active_blocks_per_sm.to_string(),
                format!("{:.0}%", o.occupancy * 100.0),
                format!("{:?}", o.limiter),
            ]),
            None => t.push_row(vec![
                threads.to_string(),
                regs.to_string(),
                shared.to_string(),
                "—".into(),
                "invalid".into(),
                "—".into(),
            ]),
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hardware_rows_quote_the_paper() {
        let md = hardware_table().markdown();
        assert!(md.contains("448"));
        assert!(md.contains("1464"));
        assert!(md.contains("2800"));
    }

    #[test]
    fn schema_lists_all_paper_fields() {
        let t = property_schema();
        assert_eq!(t.rows.len(), 8);
        assert!(t.markdown().contains("FRONT CELL"));
    }

    #[test]
    fn occupancy_table_confirms_the_claim() {
        let md = occupancy_check().markdown();
        // 256-thread rows reach 100 %.
        assert!(md.contains("100%"));
    }
}
