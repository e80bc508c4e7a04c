//! Content-defined vs fixed-size chunking for versioned storage.
//!
//! Run with `cargo run --release --example dedup_storage`.
//!
//! The motivating contrast of §6.2: store three evolving versions of a
//! file in Inc-HDFS twice — once with plain fixed-size splits
//! (`copyFromLocal`) and once with Shredder's content-based splits
//! (`copyFromLocalGPU`) — and compare how much each upload actually had
//! to store after an insertion shifts all downstream offsets.

use shredder::core::{Shredder, ShredderConfig};
use shredder::hdfs::{IncHdfs, TextInputFormat};
use shredder::rabin::ChunkParams;
use shredder::workloads;

fn main() {
    // Version 1: a 32 MiB record-oriented corpus.
    let v1 = workloads::words_corpus(32 << 20, 3000, 21);
    // Version 2: a few records inserted near the front — every byte
    // after the insertion shifts.
    let mut v2 = b"a handful of freshly inserted records\n".to_vec();
    v2.extend_from_slice(&v1);
    // Version 3: plus localized edits across the file.
    let v3 = workloads::mutate(
        &v2,
        &workloads::MutationSpec {
            span_bytes: 512 << 10, // localized edits
            ..workloads::MutationSpec::replace(0.03, 5)
        },
    );

    let service = Shredder::new(
        ShredderConfig::cpu_pthreads()
            .with_params(ChunkParams::paper().with_expected_size(64 << 10)),
    );

    let mut fixed = IncHdfs::new(8);
    let mut cdc = IncHdfs::new(8);

    println!(
        "{:<10}{:>22}{:>22}",
        "", "fixed-size splits", "content-based splits"
    );
    for (name, version) in [("v1", &v1), ("v2", &v2), ("v3", &v3)] {
        let fr = fixed.copy_from_local("/file", version, 64 << 10).unwrap();
        let cr = cdc
            .copy_from_local_gpu("/file", version, &service, &TextInputFormat)
            .unwrap();
        println!(
            "{name:<10}{:>14} MiB new{:>14} MiB new",
            fr.new_bytes >> 20,
            cr.new_bytes >> 20
        );
        // Both store the data faithfully.
        assert_eq!(fixed.read("/file").unwrap(), *version);
        assert_eq!(cdc.read("/file").unwrap(), *version);
    }

    println!(
        "\nphysical bytes stored: fixed {} MiB vs content-based {} MiB",
        fixed.physical_bytes() >> 20,
        cdc.physical_bytes() >> 20
    );
    println!(
        "content-based chunking stored {:.1}x less data across versions",
        fixed.physical_bytes() as f64 / cdc.physical_bytes() as f64
    );
}
