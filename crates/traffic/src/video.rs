//! DASH-style adaptive video cross traffic (Fig. 11).
//!
//! A video client downloads the stream chunk by chunk (chunk duration a few
//! seconds) and paces itself off its playback buffer: it fetches the next
//! chunk as soon as the buffer has room, and idles when the buffer is full.
//! Two regimes matter for the paper:
//!
//! * **4K** — the encoded bitrate exceeds the flow's fair share of the link,
//!   so the client is perpetually behind: the transfer is network-limited and
//!   behaves like a backlogged (elastic) flow;
//! * **1080p** — the encoded bitrate is comfortably below the fair share, so
//!   the client spends most of its time idle between chunk downloads:
//!   application-limited, hence inelastic.
//!
//! The model implements a [`Source`]: bytes become available chunk-by-chunk,
//! with the next chunk released once the previous chunk's bytes *could* have
//! been played out (i.e. the application writes at most `buffer_chunks`
//! chunks ahead of real-time playback).

use nimbus_netsim::Time;
use nimbus_transport::Source;

/// The two video qualities of Fig. 11.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VideoQuality {
    /// 4K ladder: ~25 Mbit/s encoded bitrate.
    Uhd4k,
    /// 1080p ladder: ~8 Mbit/s encoded bitrate.
    Fhd1080p,
}

impl VideoQuality {
    /// Encoded bitrate in bits per second.
    pub fn bitrate_bps(self) -> f64 {
        match self {
            VideoQuality::Uhd4k => 25e6,
            VideoQuality::Fhd1080p => 8e6,
        }
    }
}

/// A chunked video source.
#[derive(Debug, Clone)]
pub struct VideoSource {
    /// Encoded bitrate (bits/s).
    bitrate_bps: f64,
    /// Duration of video covered by one chunk.
    chunk_duration: Time,
    /// How many chunks of playback buffer the client keeps ahead of real time.
    buffer_chunks: u32,
    /// Total stream duration (no more chunks after this much *content*).
    stream_duration: Time,
    /// When the session began (set by [`Source::on_flow_start`]); playback
    /// position is measured from here, so a video flow that starts
    /// mid-experiment begins at its first chunk instead of offering the
    /// whole elapsed stream as backlog.
    session_start: Time,
}

impl VideoSource {
    /// A video source with 4-second chunks and a 4-chunk client buffer.
    pub fn new(quality: VideoQuality, stream_duration_s: f64) -> Self {
        VideoSource {
            bitrate_bps: quality.bitrate_bps(),
            chunk_duration: Time::from_secs_f64(4.0),
            buffer_chunks: 4,
            stream_duration: Time::from_secs_f64(stream_duration_s),
            session_start: Time::ZERO,
        }
    }

    /// Size of one chunk in bytes.
    pub fn chunk_bytes(&self) -> u64 {
        (self.bitrate_bps * self.chunk_duration.as_secs_f64() / 8.0) as u64
    }

    /// Total number of chunks in the stream.
    pub fn total_chunks(&self) -> u64 {
        (self.stream_duration.as_secs_f64() / self.chunk_duration.as_secs_f64()).ceil() as u64
    }

    /// Number of chunks the application has released for transmission by `now`:
    /// the playback position (in chunks) plus the buffer allowance, capped at
    /// the stream length.
    fn chunks_released(&self, now: Time) -> u64 {
        let elapsed = now.saturating_sub(self.session_start).as_secs_f64();
        let played = (elapsed / self.chunk_duration.as_secs_f64()).floor() as u64;
        (played + self.buffer_chunks as u64).min(self.total_chunks())
    }
}

impl Source for VideoSource {
    fn on_flow_start(&mut self, now: Time) {
        self.session_start = now;
    }

    fn bytes_available(&mut self, now: Time) -> u64 {
        self.chunks_released(now) * self.chunk_bytes()
    }

    fn next_data_time(&self, now: Time) -> Option<Time> {
        if self.chunks_released(now) >= self.total_chunks() {
            return None;
        }
        // The next chunk is released at the next chunk boundary (relative to
        // the session start).
        let chunk_s = self.chunk_duration.as_secs_f64();
        let elapsed = now.saturating_sub(self.session_start).as_secs_f64();
        let next_boundary = ((elapsed / chunk_s).floor() + 1.0) * chunk_s;
        Some(self.session_start + Time::from_secs_f64(next_boundary))
    }

    fn done_writing(&self) -> bool {
        // The stream has a fixed number of chunks; from the sender's point of
        // view writing finishes once every chunk has been released, which we
        // approximate by comparing against the stream duration at query time.
        false
    }

    fn label(&self) -> &'static str {
        "dash-video"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_sizing_matches_bitrate() {
        let v = VideoSource::new(VideoQuality::Fhd1080p, 120.0);
        // 8 Mbit/s * 4 s / 8 = 4 MB per chunk.
        assert_eq!(v.chunk_bytes(), 4_000_000);
        assert_eq!(v.total_chunks(), 30);
    }

    #[test]
    fn initial_burst_then_chunk_by_chunk() {
        let mut v = VideoSource::new(VideoQuality::Fhd1080p, 120.0);
        // At t=0 the client may buffer 4 chunks ahead.
        assert_eq!(v.bytes_available(Time::ZERO), 4 * 4_000_000);
        // At t=4s one more chunk is released.
        assert_eq!(v.bytes_available(Time::from_secs_f64(4.0)), 5 * 4_000_000);
        // Release times line up with chunk boundaries.
        let next = v.next_data_time(Time::from_secs_f64(5.0)).unwrap();
        assert!((next.as_secs_f64() - 8.0).abs() < 1e-9);
    }

    #[test]
    fn release_rate_equals_encoded_bitrate() {
        let mut v = VideoSource::new(VideoQuality::Uhd4k, 600.0);
        let b100 = v.bytes_available(Time::from_secs_f64(100.0));
        let b200 = v.bytes_available(Time::from_secs_f64(200.0));
        let rate = (b200 - b100) as f64 * 8.0 / 100.0;
        assert!((rate - 25e6).abs() < 2e6, "release rate {rate}");
    }

    #[test]
    fn stream_ends_and_stops_releasing() {
        let mut v = VideoSource::new(VideoQuality::Fhd1080p, 40.0);
        let at_end = v.bytes_available(Time::from_secs_f64(40.0));
        let later = v.bytes_available(Time::from_secs_f64(400.0));
        assert_eq!(at_end, later);
        assert_eq!(v.next_data_time(Time::from_secs_f64(400.0)), None);
        assert_eq!(later, v.total_chunks() * v.chunk_bytes());
    }

    #[test]
    fn late_starting_session_begins_at_its_first_chunk() {
        let mut v = VideoSource::new(VideoQuality::Fhd1080p, 120.0);
        v.on_flow_start(Time::from_secs_f64(90.0));
        // At the session start only the client's buffer allowance is
        // released, not 90 seconds of stream.
        assert_eq!(v.bytes_available(Time::from_secs_f64(90.0)), 4 * 4_000_000);
        assert_eq!(v.bytes_available(Time::from_secs_f64(94.0)), 5 * 4_000_000);
        let next = v.next_data_time(Time::from_secs_f64(95.0)).unwrap();
        assert!((next.as_secs_f64() - 98.0).abs() < 1e-9);
    }

    #[test]
    fn quality_presets_are_ordered() {
        assert!(VideoQuality::Uhd4k.bitrate_bps() > VideoQuality::Fhd1080p.bitrate_bps());
    }
}
