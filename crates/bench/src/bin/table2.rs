//! Prints Table 2: the explored design space.

use serr_core::design::{C_VALUES, N_VALUES, S_VALUES};
use serr_core::figures::render_table;
use serr_core::prelude::Workload;

fn main() {
    let fmt = |xs: &[f64]| xs.iter().map(|x| format!("{x:.0e}")).collect::<Vec<_>>().join("  ");
    let rows = vec![
        vec!["N (elements/component)".to_owned(), fmt(&N_VALUES)],
        vec![
            "S (rate scaling)".to_owned(),
            S_VALUES.iter().map(|s| format!("{s}")).collect::<Vec<_>>().join("  "),
        ],
        vec![
            "C (components)".to_owned(),
            C_VALUES.iter().map(|c| c.to_string()).collect::<Vec<_>>().join("  "),
        ],
        vec![
            "Workload".to_owned(),
            Workload::all().iter().map(|w| w.label().to_owned()).collect::<Vec<_>>().join("  "),
        ],
    ];
    println!("Table 2. The design space explored.\n");
    print!("{}", render_table(&["dimension", "values"], &rows));
}
