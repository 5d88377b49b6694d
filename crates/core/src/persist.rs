//! Line-oriented text codec for trained identifiers.
//!
//! An IoTSSP trains models offline (§III-B, §VI-A) and serves
//! identification queries later, possibly on different machines — so
//! the trained [`DeviceTypeIdentifier`] must survive a round-trip to
//! disk. This codec persists everything the identifier holds:
//!
//! * the [`IdentifierConfig`] (hyperparameters, distance variant,
//!   accept threshold),
//! * the [`crate::TypeRegistry`] — every interned type name in id
//!   order, so a reloaded model hands out **the same [`crate::TypeId`]
//!   values** as the original and ids embedded in external systems
//!   (gateway device records, incident stores) stay valid,
//! * one forest block per device type (via [`sentinel_ml::codec`])
//!   plus that type's reference fingerprints for discrimination,
//! * the training-sample pool, so incremental
//!   [`DeviceTypeIdentifier::add_device_type`] keeps working after a
//!   reload (new classifiers need negatives from the pool).
//!
//! There is one document version (`iot-sentinel-model v2`); any other
//! header is a typed [`CoreError::Persist`]. Floats (the accept
//! threshold, tree split thresholds) are stored as IEEE-754 bit
//! patterns, so `write → read` reproduces a model that is
//! behaviourally *identical*: every prediction, vote fraction and
//! discrimination score matches the original exactly.
//!
//! # Example
//!
//! ```no_run
//! use sentinel_core::{persist, IdentifierConfig, Trainer};
//! use sentinel_devices::{catalog, generate_dataset, NetworkEnvironment};
//! use std::fs::File;
//!
//! let dataset = generate_dataset(
//!     &catalog::standard_catalog(),
//!     &NetworkEnvironment::default(),
//!     20,
//!     1,
//! );
//! let identifier = Trainer::new(IdentifierConfig::default()).train(&dataset, 42)?;
//! persist::write_identifier(File::create("model.txt")?, &identifier)?;
//! let back = persist::read_identifier(File::open("model.txt")?)?;
//! assert_eq!(back.type_count(), identifier.type_count());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::io::{BufRead, BufReader, Read, Write};

use sentinel_editdist::DistanceVariant;
use sentinel_fingerprint::{Fingerprint, PacketFeatures, FEATURE_COUNT};
use sentinel_ml::codec as ml_codec;
use sentinel_ml::{FeatureSubsample, ForestConfig};

use crate::classifier::TypeClassifier;
use crate::error::CoreError;
use crate::identifier::DeviceTypeIdentifier;
use crate::registry::{TypeId, TypeRegistry};
use crate::trainer::IdentifierConfig;

const HEADER_V2: &str = "iot-sentinel-model v2";
const FOOTER: &str = "end model";

/// Writes `identifier` to `w` in the v2 text format (a `&mut` writer
/// also works).
///
/// # Errors
///
/// Returns [`CoreError::Io`] for underlying write failures and
/// [`CoreError::BadDataset`] if a type name contains a line break
/// (impossible for names produced by this crate's pipeline).
pub fn write_identifier<W: Write>(
    w: W,
    identifier: &DeviceTypeIdentifier,
) -> Result<(), CoreError> {
    let mut w = w;
    writeln!(w, "{HEADER_V2}")?;
    write_config(&mut w, identifier.config())?;

    let registry = identifier.registry();
    writeln!(w, "registry {}", registry.len())?;
    for name in registry.names() {
        if name.contains('\n') || name.contains('\r') {
            return Err(CoreError::BadDataset(format!(
                "type name {name:?} contains a line break"
            )));
        }
        writeln!(w, "name {name}")?;
    }

    let models: Vec<_> = identifier.models().collect();
    writeln!(w, "types {}", models.len())?;
    for (id, classifier, references) in models {
        writeln!(w, "type {} {}", references.len(), registry.name(id))?;
        ml_codec::write_forest(&mut w, classifier.forest()).map_err(CoreError::Ml)?;
        for reference in references {
            write_fingerprint(&mut w, "reference", reference)?;
        }
    }

    let pool: Vec<_> = identifier.pool_samples().collect();
    writeln!(w, "pool {}", pool.len())?;
    for (id, fingerprint) in pool {
        writeln!(w, "label {}", registry.name(id))?;
        write_fingerprint(&mut w, "fingerprint", fingerprint)?;
    }
    writeln!(w, "{FOOTER}")?;
    Ok(())
}

/// Reads an identifier from `r`.
///
/// The type registry is restored exactly — ids match the writing
/// identifier's ids.
///
/// # Errors
///
/// Returns [`CoreError::Persist`] with a line number for malformed
/// documents, [`CoreError::Ml`] for invalid embedded forests and
/// [`CoreError::Io`] for underlying read failures.
pub fn read_identifier<R: Read>(r: R) -> Result<DeviceTypeIdentifier, CoreError> {
    let mut r = BufReader::new(r);
    let mut line_no = 0usize;

    if read_line(&mut r, &mut line_no)? != HEADER_V2 {
        return Err(persist_err(line_no, "expected `iot-sentinel-model v2`"));
    }
    let config = read_config(&mut r, &mut line_no)?;

    let mut registry = TypeRegistry::new();
    let registry_line = read_line(&mut r, &mut line_no)?;
    let name_count: usize = expect_keyword_count(&registry_line, "registry", line_no)?;
    for _ in 0..name_count {
        let name_line = read_line(&mut r, &mut line_no)?;
        let name = name_line
            .strip_prefix("name ")
            .ok_or_else(|| persist_err(line_no, "expected `name <type-name>`"))?;
        if name.is_empty() {
            return Err(persist_err(line_no, "empty type name in registry"));
        }
        registry.intern(name);
    }

    let types_line = read_line(&mut r, &mut line_no)?;
    let type_count: usize = expect_keyword_count(&types_line, "types", line_no)?;
    let mut models = Vec::with_capacity(type_count);
    for _ in 0..type_count {
        let type_line = read_line(&mut r, &mut line_no)?;
        let rest = type_line
            .strip_prefix("type ")
            .ok_or_else(|| persist_err(line_no, "expected `type <n_refs> <name>`"))?;
        let (count_token, name) = rest
            .split_once(' ')
            .ok_or_else(|| persist_err(line_no, "expected `type <n_refs> <name>`"))?;
        let n_refs: usize = count_token
            .parse()
            .map_err(|_| persist_err(line_no, "bad reference count"))?;
        if name.is_empty() {
            return Err(persist_err(line_no, "empty type name"));
        }
        let id = resolve_name(&registry, name, line_no)?;
        let forest = ml_codec::read_forest(&mut r).map_err(CoreError::Ml)?;
        let mut references = Vec::with_capacity(n_refs);
        for _ in 0..n_refs {
            references.push(read_fingerprint(&mut r, &mut line_no, "reference")?);
        }
        models.push((
            id,
            TypeClassifier::from_parts(name.to_string(), forest),
            references,
        ));
    }

    let pool_line = read_line(&mut r, &mut line_no)?;
    let pool_count: usize = expect_keyword_count(&pool_line, "pool", line_no)?;
    let mut pool = Vec::with_capacity(pool_count);
    for _ in 0..pool_count {
        let label_line = read_line(&mut r, &mut line_no)?;
        let label = label_line
            .strip_prefix("label ")
            .ok_or_else(|| persist_err(line_no, "expected `label <name>`"))?;
        let id = resolve_name(&registry, label, line_no)?;
        let fingerprint = read_fingerprint(&mut r, &mut line_no, "fingerprint")?;
        pool.push((id, fingerprint));
    }
    let footer = read_line(&mut r, &mut line_no)?;
    if footer != FOOTER {
        return Err(persist_err(line_no, "expected `end model` footer"));
    }
    DeviceTypeIdentifier::from_parts(config, registry, models, pool)
}

/// Maps a type name to its id; the registry section must have
/// declared it.
fn resolve_name(registry: &TypeRegistry, name: &str, line_no: usize) -> Result<TypeId, CoreError> {
    registry.get(name).ok_or_else(|| {
        persist_err(
            line_no,
            &format!("type name {name:?} missing from registry section"),
        )
    })
}

fn write_config<W: Write>(w: &mut W, config: &IdentifierConfig) -> Result<(), CoreError> {
    let distance = match config.distance {
        DistanceVariant::Osa => "osa",
        DistanceVariant::FullDamerau => "damerau",
        DistanceVariant::Levenshtein => "levenshtein",
    };
    let subsample = match config.forest.tree.feature_subsample {
        FeatureSubsample::Sqrt => "sqrt".to_string(),
        FeatureSubsample::Log2 => "log2".to_string(),
        FeatureSubsample::All => "all".to_string(),
        FeatureSubsample::Fixed(n) => format!("fixed:{n}"),
    };
    writeln!(
        w,
        "config negatives={} references={} distance={distance} prefix={} accept={:08x} \
         trees={} depth={} min_split={} min_leaf={} subsample={subsample} bootstrap={}",
        config.negative_ratio,
        config.references_per_type,
        config.fixed_prefix_len,
        config.accept_threshold.to_bits(),
        config.forest.n_trees,
        config.forest.tree.max_depth,
        config.forest.tree.min_samples_split,
        config.forest.tree.min_samples_leaf,
        u8::from(config.forest.bootstrap),
    )?;
    Ok(())
}

fn read_config<R: BufRead>(r: &mut R, line_no: &mut usize) -> Result<IdentifierConfig, CoreError> {
    let line = read_line(r, line_no)?;
    let mut parts = line.split_whitespace();
    if parts.next() != Some("config") {
        return Err(persist_err(*line_no, "expected `config ...`"));
    }
    let mut config = IdentifierConfig {
        // Deserialized models run inference; keep training serial
        // unless retrained explicitly.
        forest: ForestConfig {
            threads: 1,
            ..ForestConfig::default()
        },
        ..IdentifierConfig::default()
    };
    for token in parts {
        let (key, value) = token
            .split_once('=')
            .ok_or_else(|| persist_err(*line_no, "expected key=value config token"))?;
        match key {
            "negatives" => config.negative_ratio = parse_value(value, *line_no, key)?,
            "references" => config.references_per_type = parse_value(value, *line_no, key)?,
            "prefix" => config.fixed_prefix_len = parse_value(value, *line_no, key)?,
            "trees" => config.forest.n_trees = parse_value(value, *line_no, key)?,
            "depth" => config.forest.tree.max_depth = parse_value(value, *line_no, key)?,
            "min_split" => {
                config.forest.tree.min_samples_split = parse_value(value, *line_no, key)?;
            }
            "min_leaf" => {
                config.forest.tree.min_samples_leaf = parse_value(value, *line_no, key)?;
            }
            "accept" => {
                let bits = u32::from_str_radix(value, 16)
                    .map_err(|_| persist_err(*line_no, "bad accept threshold bits"))?;
                config.accept_threshold = f32::from_bits(bits);
            }
            "distance" => {
                config.distance = match value {
                    "osa" => DistanceVariant::Osa,
                    "damerau" => DistanceVariant::FullDamerau,
                    "levenshtein" => DistanceVariant::Levenshtein,
                    _ => return Err(persist_err(*line_no, "unknown distance variant")),
                };
            }
            "subsample" => {
                config.forest.tree.feature_subsample = match value {
                    "sqrt" => FeatureSubsample::Sqrt,
                    "log2" => FeatureSubsample::Log2,
                    "all" => FeatureSubsample::All,
                    other => match other.strip_prefix("fixed:") {
                        Some(n) => FeatureSubsample::Fixed(parse_value(n, *line_no, key)?),
                        None => {
                            return Err(persist_err(*line_no, "unknown feature subsample"));
                        }
                    },
                };
            }
            "bootstrap" => config.forest.bootstrap = value == "1",
            // Unknown keys are skipped so v2 readers tolerate additive
            // future extensions.
            _ => {}
        }
    }
    Ok(config)
}

fn write_fingerprint<W: Write>(
    w: &mut W,
    keyword: &str,
    fingerprint: &Fingerprint,
) -> Result<(), CoreError> {
    writeln!(w, "{keyword} {}", fingerprint.len())?;
    for col in fingerprint.iter() {
        let rendered: Vec<String> = col.values().iter().map(u32::to_string).collect();
        writeln!(w, "{}", rendered.join(" "))?;
    }
    Ok(())
}

fn read_fingerprint<R: BufRead>(
    r: &mut R,
    line_no: &mut usize,
    keyword: &str,
) -> Result<Fingerprint, CoreError> {
    let header = read_line(r, line_no)?;
    let count_token = header
        .strip_prefix(keyword)
        .and_then(|rest| rest.strip_prefix(' '))
        .ok_or_else(|| persist_err(*line_no, &format!("expected `{keyword} <n_cols>`")))?;
    let n_cols: usize = count_token
        .parse()
        .map_err(|_| persist_err(*line_no, "bad column count"))?;
    let mut columns = Vec::with_capacity(n_cols);
    for _ in 0..n_cols {
        let line = read_line(r, line_no)?;
        let mut values = [0u32; FEATURE_COUNT];
        let mut tokens = line.split_whitespace();
        for slot in &mut values {
            *slot = tokens
                .next()
                .ok_or_else(|| persist_err(*line_no, "short feature row"))?
                .parse()
                .map_err(|_| persist_err(*line_no, "bad feature value"))?;
        }
        if tokens.next().is_some() {
            return Err(persist_err(*line_no, "trailing tokens on feature row"));
        }
        columns.push(PacketFeatures::from_raw(values));
    }
    Ok(Fingerprint::from_columns(columns))
}

fn read_line<R: BufRead>(r: &mut R, line_no: &mut usize) -> Result<String, CoreError> {
    let mut line = String::new();
    let n = r.read_line(&mut line)?;
    *line_no += 1;
    if n == 0 {
        return Err(persist_err(*line_no, "unexpected end of input"));
    }
    Ok(line.trim_end().to_string())
}

fn expect_keyword_count(line: &str, keyword: &str, line_no: usize) -> Result<usize, CoreError> {
    line.strip_prefix(keyword)
        .and_then(|rest| rest.strip_prefix(' '))
        .ok_or_else(|| persist_err(line_no, &format!("expected `{keyword} <count>`")))?
        .parse()
        .map_err(|_| persist_err(line_no, &format!("bad {keyword} count")))
}

fn persist_err(line: usize, message: &str) -> CoreError {
    CoreError::Persist {
        line,
        message: message.to_string(),
    }
}

fn parse_value(value: &str, line_no: usize, key: &str) -> Result<usize, CoreError> {
    value
        .parse()
        .map_err(|_| persist_err(line_no, &format!("bad value for config key {key}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trainer::Trainer;
    use sentinel_fingerprint::{Dataset, LabeledFingerprint};
    use sentinel_ml::{ForestConfig, TreeConfig};

    fn fp(tags: &[u32]) -> Fingerprint {
        Fingerprint::from_columns(
            tags.iter()
                .map(|t| {
                    let mut v = [0u32; FEATURE_COUNT];
                    v[18] = *t;
                    v[20] = t % 3;
                    PacketFeatures::from_raw(v)
                })
                .collect(),
        )
    }

    fn dataset() -> Dataset {
        let mut ds = Dataset::new();
        for i in 0..8u32 {
            ds.push(LabeledFingerprint::new("A", fp(&[100 + i, 110, 120])));
            ds.push(LabeledFingerprint::new("B", fp(&[500 + i, 510, 520])));
            ds.push(LabeledFingerprint::new("C", fp(&[900 + i, 910, 920])));
        }
        ds
    }

    fn config() -> IdentifierConfig {
        IdentifierConfig {
            forest: ForestConfig {
                n_trees: 7,
                tree: TreeConfig::default(),
                bootstrap: true,
                threads: 1,
            },
            accept_threshold: 0.4375, // exactly representable
            ..IdentifierConfig::default()
        }
    }

    #[test]
    fn round_trip_preserves_every_identification() {
        let identifier = Trainer::new(config()).train(&dataset(), 3).unwrap();
        let mut buf = Vec::new();
        write_identifier(&mut buf, &identifier).unwrap();
        let back = read_identifier(buf.as_slice()).unwrap();

        assert_eq!(back.type_count(), identifier.type_count());
        assert_eq!(back.known_types(), identifier.known_types());
        assert_eq!(back.config(), identifier.config());
        for probe in dataset().iter() {
            assert_eq!(
                back.identify(probe.fingerprint()),
                identifier.identify(probe.fingerprint()),
                "identification differs after reload"
            );
        }
    }

    #[test]
    fn registry_round_trips_with_identical_ids() {
        let identifier = Trainer::new(config()).train(&dataset(), 3).unwrap();
        let mut buf = Vec::new();
        write_identifier(&mut buf, &identifier).unwrap();
        let back = read_identifier(buf.as_slice()).unwrap();

        // The id ↔ name bijection is preserved exactly: same names,
        // same ids, same order — ids stored outside the model (device
        // records, incident stores) survive a model reload.
        assert_eq!(back.registry(), identifier.registry());
        for (id, name) in identifier.registry().iter() {
            assert_eq!(back.registry().name(id), name);
            assert_eq!(back.registry().get(name), Some(id));
        }
    }

    #[test]
    fn incremental_learning_survives_reload() {
        let identifier = Trainer::new(config()).train(&dataset(), 3).unwrap();
        let mut buf = Vec::new();
        write_identifier(&mut buf, &identifier).unwrap();
        let mut back = read_identifier(buf.as_slice()).unwrap();

        // The pool travelled with the model, so a new type can be
        // added incrementally after reload.
        let new_fps: Vec<Fingerprint> = (0..6).map(|i| fp(&[1500 + i, 1510, 1520])).collect();
        let d = back.add_device_type("D", &new_fps, 9).unwrap();
        assert_eq!(back.type_count(), 4);
        assert_eq!(
            back.identify(&fp(&[1503, 1510, 1520])).device_type(),
            Some(d)
        );
    }

    #[test]
    fn extended_model_documents_keep_existing_ids_stable() {
        // The hot-reload contract: a v2 document written after new
        // types were added reloads into a registry that *extends* the
        // original — every old id resolves to the same name at the
        // same index, new ids strictly append.
        let identifier = Trainer::new(config()).train(&dataset(), 3).unwrap();
        let mut buf = Vec::new();
        write_identifier(&mut buf, &identifier).unwrap();
        let old = read_identifier(buf.as_slice()).unwrap();

        let mut extended = identifier.clone();
        let new_fps: Vec<Fingerprint> = (0..6).map(|i| fp(&[1500 + i, 1510, 1520])).collect();
        let new_id = extended.add_device_type("D", &new_fps, 9).unwrap();
        let mut buf = Vec::new();
        write_identifier(&mut buf, &extended).unwrap();
        let reloaded = read_identifier(buf.as_slice()).unwrap();

        reloaded
            .registry()
            .ensure_extends(old.registry())
            .expect("an extended model document must extend the old registry");
        for (id, name) in old.registry().iter() {
            assert_eq!(reloaded.registry().name(id), name);
        }
        assert_eq!(new_id.index(), old.registry().len());
        assert_eq!(reloaded.registry().name(new_id), "D");
    }

    #[test]
    fn v1_documents_are_refused_with_a_typed_error() {
        let identifier = Trainer::new(config()).train(&dataset(), 3).unwrap();
        let mut buf = Vec::new();
        write_identifier(&mut buf, &identifier).unwrap();
        let doc = String::from_utf8(buf).unwrap();
        // Rewrite as a v1 document: v1 header, no registry section.
        let v1 = doc.replacen(HEADER_V2, "iot-sentinel-model v1", 1);
        let registry_end = v1.find("types ").unwrap();
        let registry_start = v1.find("registry ").unwrap();
        let v1 = format!("{}{}", &v1[..registry_start], &v1[registry_end..]);
        match read_identifier(v1.as_bytes()) {
            Err(CoreError::Persist { line: 1, message }) => {
                assert!(message.contains("iot-sentinel-model v2"), "{message}");
            }
            other => panic!("expected a line-1 persist error, got {other:?}"),
        }
    }

    #[test]
    fn v2_rejects_names_missing_from_registry() {
        let identifier = Trainer::new(config()).train(&dataset(), 3).unwrap();
        let mut buf = Vec::new();
        write_identifier(&mut buf, &identifier).unwrap();
        let doc = String::from_utf8(buf).unwrap();
        // Corrupt one pool label to a name the registry never declared.
        let corrupted = doc.replacen("label A", "label Zebra", 1);
        match read_identifier(corrupted.as_bytes()) {
            Err(CoreError::Persist { message, .. }) => {
                assert!(message.contains("missing from registry"), "{message}");
            }
            other => panic!("expected persist error, got {other:?}"),
        }
    }

    #[test]
    fn truncated_document_reports_position() {
        let identifier = Trainer::new(config()).train(&dataset(), 3).unwrap();
        let mut buf = Vec::new();
        write_identifier(&mut buf, &identifier).unwrap();
        buf.truncate(buf.len() * 2 / 3);
        match read_identifier(buf.as_slice()) {
            Err(CoreError::Persist { line, .. }) => assert!(line > 1),
            Err(CoreError::Ml(_)) => {} // cut inside a forest block
            other => panic!("expected parse failure, got {other:?}"),
        }
    }

    #[test]
    fn wrong_header_is_rejected() {
        let err = read_identifier("not-a-model v9\n".as_bytes()).unwrap_err();
        assert!(matches!(err, CoreError::Persist { line: 1, .. }));
    }

    #[test]
    fn unknown_config_keys_are_tolerated() {
        let identifier = Trainer::new(config()).train(&dataset(), 3).unwrap();
        let mut buf = Vec::new();
        write_identifier(&mut buf, &identifier).unwrap();
        let doc = String::from_utf8(buf).unwrap();
        let extended = doc.replacen("config ", "config future_knob=7 ", 1);
        let back = read_identifier(extended.as_bytes()).unwrap();
        assert_eq!(back.type_count(), 3);
    }

    #[test]
    fn unusual_type_names_round_trip() {
        // Labels are single tokens (the dataset type enforces it), but
        // punctuation-heavy names must still survive the codec.
        let mut ds = Dataset::new();
        for i in 0..6u32 {
            ds.push(LabeledFingerprint::new(
                "Vendor-Device_X.v2+eu",
                fp(&[100 + i, 110, 120]),
            ));
            ds.push(LabeledFingerprint::new("B", fp(&[500 + i, 510, 520])));
        }
        let identifier = Trainer::new(config()).train(&ds, 5).unwrap();
        let mut buf = Vec::new();
        write_identifier(&mut buf, &identifier).unwrap();
        let back = read_identifier(buf.as_slice()).unwrap();
        assert!(back.known_types().contains(&"Vendor-Device_X.v2+eu"));
    }
}
