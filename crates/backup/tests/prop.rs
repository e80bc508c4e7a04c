//! Property-based tests: the backup pipeline conserves bytes and always
//! restores exactly.

use proptest::prelude::*;
use shredder_backup::{BackupConfig, BackupServer};
use shredder_core::{Shredder, ShredderConfig};
use shredder_rabin::ChunkParams;

fn service() -> Shredder {
    Shredder::new(
        ShredderConfig::cpu_pthreads()
            .with_params(ChunkParams {
                min_size: 256,
                max_size: 4096,
                ..ChunkParams::paper().with_expected_size(1024)
            })
            .with_buffer_size(64 << 10),
    )
}

fn config() -> BackupConfig {
    BackupConfig {
        buffer_size: 64 << 10,
        ..BackupConfig::paper()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every backed-up image restores byte-identical, and the report's
    /// byte accounting is conserved: new + dedup == total.
    #[test]
    fn restore_and_conservation(images in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..65536), 1..4)) {
        let svc = service();
        let mut server = BackupServer::new(config());
        for image in &images {
            let report = server.backup_image(image, &svc).unwrap();
            prop_assert_eq!(report.new_bytes + report.dedup_bytes, report.image_bytes);
            let restored = server.site().restore(report.image_id);
            prop_assert_eq!(restored.as_deref(), Some(image.as_slice()));
        }
        // Physical storage never exceeds the logical total.
        prop_assert!(server.site().physical_bytes() <= images.iter().map(|i| i.len() as u64).sum());
    }

    /// Backing up the same image twice ships nothing the second time.
    #[test]
    fn idempotent_second_backup(image in proptest::collection::vec(any::<u8>(), 0..65536)) {
        let svc = service();
        let mut server = BackupServer::new(config());
        let first = server.backup_image(&image, &svc).unwrap();
        let second = server.backup_image(&image, &svc).unwrap();
        prop_assert_eq!(second.new_chunks, 0);
        prop_assert_eq!(second.new_bytes, 0);
        prop_assert_eq!(first.chunks, second.chunks);
        // The second pass is never slower than the first (nothing to ship).
        prop_assert!(second.makespan <= first.makespan);
    }

    /// Concatenating a prefix of an already-backed-up image dedups at
    /// least the shared chunk content.
    #[test]
    fn prefix_sharing_dedups(base in proptest::collection::vec(any::<u8>(), 8192..65536), extra in proptest::collection::vec(any::<u8>(), 0..8192)) {
        let svc = service();
        let mut server = BackupServer::new(config());
        server.backup_image(&base, &svc).unwrap();
        let mut extended = base.clone();
        extended.extend_from_slice(&extra);
        let report = server.backup_image(&extended, &svc).unwrap();
        // All but the tail chunks (perturbed near the old end) dedup.
        prop_assert!(
            report.dedup_bytes as usize + extra.len() + 2 * 4096 >= base.len(),
            "dedup {} of {} base bytes",
            report.dedup_bytes,
            base.len()
        );
    }
}
