//! The VBR trace type: bytes per slice at a fixed slice/frame geometry,
//! with aggregation to frame granularity, summary statistics (Table 2),
//! clipping (the §6 recommendation), and simple binary/CSV persistence.

use std::io::{self, Read, Write};
use std::path::Path;

use crate::error::TraceError;
use vbr_stats::error::{check_positive_param, NumericError};
use vbr_stats::TraceSummary;

/// A variable-bit-rate video trace: coded bytes per slice.
///
/// ```
/// use vbr_video::Trace;
///
/// // 2 frames × 3 slices at 24 fps.
/// let t = Trace::from_slices(vec![100, 120, 80, 200, 150, 250], 3, 24.0);
/// assert_eq!(t.frames(), 2);
/// assert_eq!(t.frame_bytes(0), 300);
/// assert_eq!(t.frame_series(), vec![300.0, 600.0]);
/// assert!((t.mean_bandwidth_bps() - 900.0 * 8.0 * 12.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    slice_bytes: Vec<u32>,
    slices_per_frame: usize,
    fps: f64,
}

impl Trace {
    /// Magic bytes of the binary file format.
    const MAGIC: &'static [u8; 8] = b"VBRTRC01";

    /// Builds a trace from per-slice byte counts.
    ///
    /// `slice_bytes.len()` must be a multiple of `slices_per_frame`.
    pub fn from_slices(slice_bytes: Vec<u32>, slices_per_frame: usize, fps: f64) -> Self {
        Self::try_from_slices(slice_bytes, slices_per_frame, fps).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`from_slices`](Self::from_slices): rejects a zero
    /// `slices_per_frame`, a non-positive/non-finite `fps` and a ragged
    /// slice count with typed errors — the entry point for data read from
    /// untrusted files.
    pub fn try_from_slices(
        slice_bytes: Vec<u32>,
        slices_per_frame: usize,
        fps: f64,
    ) -> Result<Self, TraceError> {
        if slices_per_frame == 0 {
            return Err(NumericError::NonPositive { what: "slices_per_frame", value: 0.0 }.into());
        }
        check_positive_param("fps", fps)?;
        if !slice_bytes.len().is_multiple_of(slices_per_frame) {
            return Err(TraceError::RaggedSlices { len: slice_bytes.len(), spf: slices_per_frame });
        }
        Ok(Trace { slice_bytes, slices_per_frame, fps })
    }

    /// Builds a frame-granularity trace (one slice per frame).
    pub fn from_frames(frame_bytes: Vec<u32>, fps: f64) -> Self {
        Trace::from_slices(frame_bytes, 1, fps)
    }

    /// Number of frames.
    pub fn frames(&self) -> usize {
        self.slice_bytes.len() / self.slices_per_frame
    }

    /// Slices per frame.
    pub fn slices_per_frame(&self) -> usize {
        self.slices_per_frame
    }

    /// Frame rate (frames per second).
    pub fn fps(&self) -> f64 {
        self.fps
    }

    /// Per-slice byte counts.
    pub fn slice_bytes(&self) -> &[u32] {
        &self.slice_bytes
    }

    /// Duration of one slice slot in seconds.
    pub fn slice_duration(&self) -> f64 {
        1.0 / (self.fps * self.slices_per_frame as f64)
    }

    /// Total bytes in frame `i`.
    pub fn frame_bytes(&self, i: usize) -> u32 {
        let s = i * self.slices_per_frame;
        self.slice_bytes[s..s + self.slices_per_frame].iter().sum()
    }

    /// Bytes-per-frame series as `f64` (the Fig 1 series).
    pub fn frame_series(&self) -> Vec<f64> {
        (0..self.frames()).map(|i| self.frame_bytes(i) as f64).collect()
    }

    /// Bytes-per-slice series as `f64`.
    pub fn slice_series(&self) -> Vec<f64> {
        self.slice_bytes.iter().map(|&b| b as f64).collect()
    }

    /// Trace duration in seconds.
    pub fn duration_secs(&self) -> f64 {
        self.frames() as f64 / self.fps
    }

    /// Long-run mean bandwidth in bits per second.
    pub fn mean_bandwidth_bps(&self) -> f64 {
        let total_bytes: u64 = self.slice_bytes.iter().map(|&b| b as u64).sum();
        total_bytes as f64 * 8.0 / self.duration_secs()
    }

    /// Average compression ratio against raw frames of `raw_frame_bytes`.
    pub fn compression_ratio(&self, raw_frame_bytes: u64) -> f64 {
        let coded: u64 = self.slice_bytes.iter().map(|&b| b as u64).sum();
        (raw_frame_bytes * self.frames() as u64) as f64 / coded as f64
    }

    /// Table 2 row at frame granularity (ΔT in ms).
    pub fn summary_frame(&self) -> TraceSummary {
        TraceSummary::from_series(&self.frame_series(), 1000.0 / self.fps)
    }

    /// Table 2 row at slice granularity.
    pub fn summary_slice(&self) -> TraceSummary {
        TraceSummary::from_series(&self.slice_series(), 1000.0 * self.slice_duration())
    }

    /// Returns a sub-trace of `n_frames` frames starting at `start_frame`
    /// (the two-minute segments of Fig 3).
    pub fn segment(&self, start_frame: usize, n_frames: usize) -> Trace {
        let a = start_frame * self.slices_per_frame;
        let b = (start_frame + n_frames) * self.slices_per_frame;
        Trace {
            slice_bytes: self.slice_bytes[a..b].to_vec(),
            slices_per_frame: self.slices_per_frame,
            fps: self.fps,
        }
    }

    /// Clips frames above `max_frame_bytes`, scaling each slice of an
    /// offending frame proportionally — the coder-side peak clipping the
    /// paper recommends in §6.
    pub fn clip(&self, max_frame_bytes: u32) -> Trace {
        let mut out = self.slice_bytes.clone();
        for i in 0..self.frames() {
            let fb = self.frame_bytes(i);
            if fb > max_frame_bytes {
                let scale = max_frame_bytes as f64 / fb as f64;
                let s = i * self.slices_per_frame;
                for v in &mut out[s..s + self.slices_per_frame] {
                    *v = (*v as f64 * scale).floor() as u32;
                }
            }
        }
        Trace { slice_bytes: out, slices_per_frame: self.slices_per_frame, fps: self.fps }
    }

    /// Writes the binary format (`VBRTRC01`, geometry, then LE u32s).
    pub fn write_binary<W: Write>(&self, mut w: W) -> io::Result<()> {
        w.write_all(Self::MAGIC)?;
        w.write_all(&(self.slices_per_frame as u64).to_le_bytes())?;
        w.write_all(&self.fps.to_le_bytes())?;
        w.write_all(&(self.slice_bytes.len() as u64).to_le_bytes())?;
        let mut buf = Vec::with_capacity(self.slice_bytes.len() * 4);
        for &v in &self.slice_bytes {
            buf.extend_from_slice(&v.to_le_bytes());
        }
        w.write_all(&buf)
    }

    /// Reads the binary format.
    pub fn read_binary<R: Read>(mut r: R) -> io::Result<Trace> {
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic)?;
        if &magic != Self::MAGIC {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "bad trace magic"));
        }
        let mut b8 = [0u8; 8];
        r.read_exact(&mut b8)?;
        let spf = u64::from_le_bytes(b8) as usize;
        r.read_exact(&mut b8)?;
        let fps = f64::from_le_bytes(b8);
        r.read_exact(&mut b8)?;
        let n = u64::from_le_bytes(b8);
        // Validate the geometry before trusting the length field.
        if spf == 0 || !(fps > 0.0 && fps.is_finite()) {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "bad trace geometry"));
        }
        let payload = n
            .checked_mul(4)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "slice count overflows"))?;
        // `take` bounds the allocation by the bytes actually present, so a
        // corrupt length field cannot demand an absurd upfront buffer.
        let mut data = Vec::new();
        r.take(payload).read_to_end(&mut data)?;
        if data.len() as u64 != payload {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "truncated trace payload"));
        }
        let slice_bytes = data
            .chunks_exact(4)
            .map(|c| {
                u32::from_le_bytes(c.try_into().expect("chunks_exact(4) yields 4-byte chunks"))
            })
            .collect();
        Trace::try_from_slices(slice_bytes, spf, fps)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }

    /// Saves to a file (binary format).
    pub fn save<P: AsRef<Path>>(&self, path: P) -> io::Result<()> {
        self.write_binary(std::fs::File::create(path)?)
    }

    /// Loads from a file (binary format).
    pub fn load<P: AsRef<Path>>(path: P) -> io::Result<Trace> {
        Self::read_binary(std::fs::File::open(path)?)
    }

    /// Writes the frame series as CSV (`frame,bytes`).
    pub fn write_frame_csv<W: Write>(&self, mut w: W) -> io::Result<()> {
        writeln!(w, "frame,bytes")?;
        for i in 0..self.frames() {
            writeln!(w, "{},{}", i, self.frame_bytes(i))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_trace() -> Trace {
        // 3 frames × 2 slices at 24 fps.
        Trace::from_slices(vec![10, 20, 30, 40, 50, 60], 2, 24.0)
    }

    #[test]
    fn geometry_and_series() {
        let t = small_trace();
        assert_eq!(t.frames(), 3);
        assert_eq!(t.frame_bytes(0), 30);
        assert_eq!(t.frame_series(), vec![30.0, 70.0, 110.0]);
        assert_eq!(t.slice_series().len(), 6);
        assert!((t.slice_duration() - 1.0 / 48.0).abs() < 1e-15);
        assert!((t.duration_secs() - 0.125).abs() < 1e-15);
    }

    #[test]
    fn bandwidth_and_compression() {
        let t = small_trace();
        // 210 bytes over 0.125 s = 13 440 bps.
        assert!((t.mean_bandwidth_bps() - 13_440.0).abs() < 1e-9);
        // Raw 100 bytes/frame → ratio 300/210.
        assert!((t.compression_ratio(100) - 300.0 / 210.0).abs() < 1e-12);
    }

    #[test]
    fn summaries_use_correct_time_units() {
        let t = small_trace();
        let f = t.summary_frame();
        assert!((f.delta_t_ms - 1000.0 / 24.0).abs() < 1e-9);
        assert!((f.mean - 70.0).abs() < 1e-12);
        let s = t.summary_slice();
        assert!((s.delta_t_ms - 1000.0 / 48.0).abs() < 1e-9);
        assert!((s.mean - 35.0).abs() < 1e-12);
    }

    #[test]
    fn segment_extracts_frames() {
        let t = small_trace();
        let seg = t.segment(1, 2);
        assert_eq!(seg.frames(), 2);
        assert_eq!(seg.frame_bytes(0), 70);
        assert_eq!(seg.frame_bytes(1), 110);
    }

    #[test]
    fn clip_caps_frames_proportionally() {
        let t = small_trace();
        let c = t.clip(60);
        assert_eq!(c.frame_bytes(0), 30); // untouched
        assert!(c.frame_bytes(1) <= 60);
        assert!(c.frame_bytes(2) <= 60);
        // Slice proportions preserved approximately (floor rounding).
        let s = c.slice_bytes();
        assert!(s[2] < s[3]);
    }

    #[test]
    fn clip_noop_when_under_limit() {
        let t = small_trace();
        assert_eq!(t.clip(1000), t);
    }

    #[test]
    fn binary_roundtrip() {
        let t = small_trace();
        let mut buf = Vec::new();
        t.write_binary(&mut buf).unwrap();
        let back = Trace::read_binary(&buf[..]).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn binary_rejects_bad_magic() {
        let err = Trace::read_binary(&b"NOTATRCE\0\0\0"[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn csv_export_format() {
        let t = small_trace();
        let mut buf = Vec::new();
        t.write_frame_csv(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "frame,bytes");
        assert_eq!(lines[1], "0,30");
        assert_eq!(lines.len(), 4);
    }

    #[test]
    #[should_panic(expected = "multiple of slices_per_frame")]
    fn rejects_ragged_slices() {
        Trace::from_slices(vec![1, 2, 3], 2, 24.0);
    }

    #[test]
    fn try_from_slices_rejects_bad_geometry_with_typed_errors() {
        assert!(matches!(
            Trace::try_from_slices(vec![1, 2, 3], 2, 24.0),
            Err(TraceError::RaggedSlices { len: 3, spf: 2 })
        ));
        assert!(matches!(Trace::try_from_slices(vec![1, 2], 0, 24.0), Err(TraceError::Numeric(_))));
        assert!(Trace::try_from_slices(vec![1, 2], 2, 0.0).is_err());
        assert!(Trace::try_from_slices(vec![1, 2], 2, f64::NAN).is_err());
        assert!(Trace::try_from_slices(vec![1, 2], 2, 24.0).is_ok());
    }

    #[test]
    fn binary_rejects_ragged_payload_without_panicking() {
        // Valid header claiming 2 slices per frame but 3 slices of data.
        let mut buf = Vec::new();
        buf.extend_from_slice(Trace::MAGIC);
        buf.extend_from_slice(&2u64.to_le_bytes());
        buf.extend_from_slice(&24.0f64.to_le_bytes());
        buf.extend_from_slice(&3u64.to_le_bytes());
        for v in [1u32, 2, 3] {
            buf.extend_from_slice(&v.to_le_bytes());
        }
        let err = Trace::read_binary(&buf[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("multiple of slices_per_frame"));
    }

    #[test]
    fn binary_rejects_truncated_payload() {
        let t = small_trace();
        let mut buf = Vec::new();
        t.write_binary(&mut buf).unwrap();
        buf.truncate(buf.len() - 3);
        let err = Trace::read_binary(&buf[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn binary_rejects_absurd_length_field_without_allocating() {
        // A header demanding u64::MAX slices must fail cleanly, not
        // attempt a multi-exabyte allocation.
        let mut buf = Vec::new();
        buf.extend_from_slice(Trace::MAGIC);
        buf.extend_from_slice(&1u64.to_le_bytes());
        buf.extend_from_slice(&24.0f64.to_le_bytes());
        buf.extend_from_slice(&u64::MAX.to_le_bytes());
        let err = Trace::read_binary(&buf[..]).unwrap_err();
        assert!(matches!(err.kind(), io::ErrorKind::InvalidData | io::ErrorKind::UnexpectedEof));
    }
}
