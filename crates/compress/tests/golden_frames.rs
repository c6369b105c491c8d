//! Cross-version wire compatibility: frames and a `GZS1` stream sealed by
//! the previous release must keep decoding, byte for byte.

#[allow(dead_code)]
#[path = "../src/testdata.rs"]
mod testdata;

use gzlite::{decompress, decompress_stream, decompress_stream_parallel, is_stream};

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
