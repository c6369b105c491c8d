//! Cross-version wire compatibility: frames and a `GZS1` stream sealed by
//! the previous release must keep decoding, byte for byte.

#[allow(dead_code)]
#[path = "../src/testdata.rs"]
mod testdata;

use gzlite::{
    compress, decompress, decompress_stream, decompress_stream_parallel, frame_codec, is_stream,
    Codec,
};

fn unhex(hex: &str) -> Vec<u8> {
    (0..hex.len() / 2)
        .map(|i| u8::from_str_radix(&hex[2 * i..2 * i + 2], 16).expect("hex fixture"))
        .collect()
}

#[test]
fn frames_sealed_by_the_previous_release_decode() {
    let inputs = testdata::golden_inputs();
    let all: Vec<u8> = inputs.iter().flat_map(|(_, data)| data.clone()).collect();
    let mut frames = 0;
    let mut streams = 0;
    for line in include_str!("golden/parent_frames.txt")
        .lines()
        .filter(|line| !line.starts_with('#'))
    {
        let fields: Vec<&str> = line.split(' ').collect();
        let (input, codec, bytes) = (fields[0], fields[1], unhex(fields[2]));
        if codec == "stream" {
            assert!(is_stream(&bytes));
            assert_eq!(decompress_stream(&bytes).unwrap(), all);
            assert_eq!(decompress_stream_parallel(&bytes, 3).unwrap(), all);
            streams += 1;
        } else {
            let want = &inputs
                .iter()
                .find(|(name, _)| *name == input)
                .expect("fixture names a golden input")
                .1;
            assert_eq!(&decompress(&bytes).unwrap(), want, "{input} {codec}");
            frames += 1;
        }
    }
    assert!(
        frames >= 20 && streams == 1,
        "{frames} frames, {streams} streams"
    );
}

/// The inputs behind `golden/planes_frames.txt`: the golden inputs, one
/// long enough that its exponent planes pay for a Huffman table, and one
/// whose planes repeat with a period, which sends them all to the matcher.
fn planes_inputs() -> Vec<(&'static str, Vec<u8>)> {
    let mut inputs = testdata::golden_inputs();
    inputs.push((
        "exponents",
        (0..1000u64)
            .flat_map(|i| (((i * i * 7919 + 13) % 10007) as f32 / 10007.0).to_le_bytes())
            .collect(),
    ));
    inputs.push((
        "integers64",
        (0..800u32)
            .flat_map(|i| f64::from((i * 7 + 3) % 251).to_le_bytes())
            .collect(),
    ));
    inputs
}

const PLANES: [(&str, Codec); 2] = [("planes4", Codec::Planes4), ("planes8", Codec::Planes8)];

/// The fixture the *next* release decodes as its "previous release":
/// planes frames (codec ids 5 and 6) as this release seals them.
#[test]
fn planes_frames_sealed_by_this_release_decode() {
    let inputs = planes_inputs();
    let mut kept = 0;
    for line in include_str!("golden/planes_frames.txt")
        .lines()
        .filter(|line| !line.starts_with('#'))
    {
        let fields: Vec<&str> = line.split(' ').collect();
        let (input, codec, bytes) = (fields[0], fields[1], unhex(fields[2]));
        let want = &inputs
            .iter()
            .find(|(name, _)| *name == input)
            .expect("fixture names a planes input")
            .1;
        assert_eq!(&decompress(&bytes).unwrap(), want, "{input} {codec}");
        let asked = PLANES
            .iter()
            .find(|(name, _)| *name == codec)
            .expect("codec name")
            .1;
        kept += usize::from(frame_codec(&bytes).unwrap() == asked);
    }
    // The rest fell back to stored frames: too small, or noise.
    assert!(kept >= 12, "{kept} frames kept their planes codec");
}

/// Prints `golden/planes_frames.txt` below its header. Run once per wire
/// format: `cargo test -p gzlite --test golden_frames -- --ignored --nocapture`.
#[test]
#[ignore = "fixture generator"]
fn print_planes_fixture() {
    for (name, data) in planes_inputs() {
        for (codec_name, codec) in PLANES {
            let hex: String = compress(&data, codec)
                .iter()
                .map(|b| format!("{b:02x}"))
                .collect();
            println!("{name} {codec_name} {hex}");
        }
    }
}
