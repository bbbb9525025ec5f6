//! Calibrate the similarity threshold `θ_sim`: measure the q-gram Jaccard
//! similarity of (clean key, dirty key) pairs per edit count, and of
//! unrelated key pairs, then report the separation the threshold exploits.

use linkage_datagen::{generate, DatagenConfig};
use linkage_text::{QGramJaccard, StringSimilarity};

/// Print one (non-empty) population's mean / min / max similarity.
fn print_row(population: &str, similarities: impl Iterator<Item = f64>) {
    let (count, sum, min, max) = similarities.fold(
        (0u32, 0.0, f64::INFINITY, f64::NEG_INFINITY),
        |(count, sum, min, max), s: f64| (count + 1, sum + s, min.min(s), max.max(s)),
    );
    let mean = sum / f64::from(count);
    println!("{population:<22} {mean:>8.3} {min:>8.3} {max:>8.3}");
}

fn main() {
    let sim = QGramJaccard::default();
    println!(
        "{:<22} {:>8} {:>8} {:>8}",
        "population", "mean", "min", "max"
    );
    for edits in 1..=3usize {
        let cfg = DatagenConfig::mid_stream_dirty(300, 42)
            .with_edits(edits)
            .with_clean_prefix(0.0);
        let data = generate(&cfg).expect("datagen failed");
        let dirty = data.truth.iter().map(|(parent_id, child_id)| {
            let p = data.parents.record_by_id(*parent_id).unwrap();
            let c = data.children.record_by_id(*child_id).unwrap();
            sim.similarity(p.key_str(1).unwrap(), c.key_str(1).unwrap())
        });
        print_row(&format!("dirty pairs ({edits} edit)"), dirty);
    }

    // Unrelated pairs: parent i against parent i+1.
    let data = generate(&DatagenConfig::clean(300, 7)).expect("datagen failed");
    let keys = data.parents.column_strings("location").unwrap();
    let unrelated = keys.windows(2).map(|pair| sim.similarity(pair[0], pair[1]));
    print_row("unrelated pairs", unrelated);
    println!("\nθ_sim = 0.8 separates 1-edit dirt from unrelated keys.");
}
