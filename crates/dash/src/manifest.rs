//! A DASH Media Presentation Description (MPD) model.
//!
//! The paper's §5.1 discusses the manifest directly: chunk size "is not a
//! mandatory field in the DASH manifest" — players fall back to the
//! HTTP `Content-Length` header — and the paper (with Yin et al.)
//! "advocates that chunk size … should be a mandatory part of the DASH
//! manifest". This module models an MPD at the level DASH control logic
//! consumes: representations with bandwidths, segment timing, and
//! *optional per-segment sizes*, so both worlds can be expressed:
//!
//! * [`Manifest::from_video`] without sizes — the status-quo manifest; the
//!   adapter must learn sizes from `Content-Length` (our HTTP layer's
//!   `HttpEvent::HeaderReceived` equivalent).
//! * [`Manifest::from_video_with_sizes`] — the paper's advocated form; the
//!   scheduler can be armed with the exact size at request time (what the
//!   session driver does).
//!
//! A compact XML-like serialization is provided for interoperability and
//! golden-file testing; it is intentionally a subset of MPEG-DASH (one
//! period, one adaptation set, `SegmentTemplate`-style duration).

use crate::video::Video;
use mpdash_sim::{Rate, SimDuration};

/// One representation (quality level) in the manifest.
#[derive(Clone, Debug, PartialEq)]
pub struct Representation {
    /// Representation id (level index as string, MPEG-DASH style).
    pub id: String,
    /// Declared average bandwidth, bits per second.
    pub bandwidth_bps: u64,
    /// Optional exact per-segment sizes in bytes (the paper's advocated
    /// extension). Length equals the segment count when present.
    pub segment_sizes: Option<Vec<u64>>,
}

/// The manifest: segment timing plus the representation ladder.
#[derive(Clone, Debug, PartialEq)]
pub struct Manifest {
    /// Presentation title.
    pub title: String,
    /// Fixed segment (chunk) duration.
    pub segment_duration: SimDuration,
    /// Number of segments.
    pub segment_count: usize,
    /// Quality ladder, ascending bandwidth.
    pub representations: Vec<Representation>,
}

impl Manifest {
    /// A status-quo manifest: bandwidths only, no sizes.
    pub fn from_video(video: &Video) -> Self {
        Manifest {
            title: video.name().to_string(),
            segment_duration: video.chunk_duration(),
            segment_count: video.n_chunks(),
            representations: video
                .bitrates()
                .iter()
                .enumerate()
                .map(|(i, r)| Representation {
                    id: i.to_string(),
                    bandwidth_bps: r.as_bps(),
                    segment_sizes: None,
                })
                .collect(),
        }
    }

    /// The paper's advocated manifest: exact segment sizes included.
    pub fn from_video_with_sizes(video: &Video) -> Self {
        let mut m = Self::from_video(video);
        for (level, rep) in m.representations.iter_mut().enumerate() {
            rep.segment_sizes = Some(
                (0..video.n_chunks())
                    .map(|i| video.chunk_size(i, level))
                    .collect(),
            );
        }
        m
    }

    /// The size a player can assume for `(segment, level)` before the
    /// download starts: the exact size when the manifest carries sizes,
    /// otherwise the nominal `bandwidth × duration` estimate — precisely
    /// the fallback gap the paper's §5.1 complains about.
    pub fn size_hint(&self, segment: usize, level: usize) -> u64 {
        let rep = &self.representations[level];
        match &rep.segment_sizes {
            Some(sizes) => sizes[segment],
            None => Rate::from_bps(rep.bandwidth_bps).bytes_in(self.segment_duration),
        }
    }

    /// Total declared bytes of one representation (`None` without sizes).
    pub fn representation_bytes(&self, level: usize) -> Option<u64> {
        self.representations[level]
            .segment_sizes
            .as_ref()
            .map(|s| s.iter().sum())
    }

    /// Serialize to the compact MPD-subset XML.
    pub fn to_xml(&self) -> String {
        let mut out = String::new();
        out.push_str("<?xml version=\"1.0\"?>\n");
        out.push_str(&format!(
            "<MPD title=\"{}\" segmentDurationMs=\"{}\" segmentCount=\"{}\">\n",
            xml_escape(&self.title),
            self.segment_duration.as_millis_f64() as u64,
            self.segment_count,
        ));
        out.push_str("  <AdaptationSet>\n");
        for rep in &self.representations {
            match &rep.segment_sizes {
                None => out.push_str(&format!(
                    "    <Representation id=\"{}\" bandwidth=\"{}\"/>\n",
                    rep.id, rep.bandwidth_bps
                )),
                Some(sizes) => {
                    out.push_str(&format!(
                        "    <Representation id=\"{}\" bandwidth=\"{}\">\n",
                        rep.id, rep.bandwidth_bps
                    ));
                    let list: Vec<String> = sizes.iter().map(|s| s.to_string()).collect();
                    out.push_str(&format!(
                        "      <SegmentSizes>{}</SegmentSizes>\n",
                        list.join(" ")
                    ));
                    out.push_str("    </Representation>\n");
                }
            }
        }
        out.push_str("  </AdaptationSet>\n</MPD>\n");
        out
    }

    /// Parse the compact MPD-subset XML produced by [`Manifest::to_xml`].
    /// A deliberately small recursive-descent-free parser: attribute
    /// scanning plus the one nested element we emit.
    pub fn from_xml(text: &str) -> Result<Self, String> {
        let title = attr(text, "MPD", "title").ok_or("missing MPD title")?;
        let dur_ms: u64 = attr(text, "MPD", "segmentDurationMs")
            .ok_or("missing segmentDurationMs")?
            .parse()
            .map_err(|e| format!("segmentDurationMs: {e}"))?;
        let count: usize = attr(text, "MPD", "segmentCount")
            .ok_or("missing segmentCount")?
            .parse()
            .map_err(|e| format!("segmentCount: {e}"))?;
        if dur_ms == 0 || count == 0 {
            return Err("segment duration and count must be positive".into());
        }

        let mut representations = Vec::new();
        let mut rest = text;
        while let Some(start) = rest.find("<Representation ") {
            let tag_end = rest[start..]
                .find('>')
                .ok_or("unterminated Representation tag")?
                + start;
            let tag = &rest[start..=tag_end];
            let id = attr(tag, "Representation", "id").ok_or("missing representation id")?;
            let bandwidth_bps: u64 = attr(tag, "Representation", "bandwidth")
                .ok_or("missing bandwidth")?
                .parse()
                .map_err(|e| format!("bandwidth: {e}"))?;
            let self_closing = tag.trim_end().ends_with("/>");
            let mut segment_sizes = None;
            let consumed = if self_closing {
                tag_end + 1
            } else {
                let close = rest[tag_end..]
                    .find("</Representation>")
                    .ok_or("unterminated Representation element")?
                    + tag_end;
                let body = &rest[tag_end + 1..close];
                if let Some(sizes_text) = element_text(body, "SegmentSizes") {
                    let sizes: Result<Vec<u64>, _> = sizes_text
                        .split_whitespace()
                        .map(str::parse::<u64>)
                        .collect();
                    let sizes = sizes.map_err(|e| format!("SegmentSizes: {e}"))?;
                    if sizes.len() != count {
                        return Err(format!(
                            "representation {id}: {} sizes for {count} segments",
                            sizes.len()
                        ));
                    }
                    segment_sizes = Some(sizes);
                }
                close + "</Representation>".len()
            };
            representations.push(Representation {
                id,
                bandwidth_bps,
                segment_sizes,
            });
            rest = &rest[consumed..];
        }
        if representations.is_empty() {
            return Err("no representations".into());
        }
        if !representations
            .windows(2)
            .all(|w| w[0].bandwidth_bps < w[1].bandwidth_bps)
        {
            return Err("representations must be strictly ascending in bandwidth".into());
        }
        Ok(Manifest {
            title,
            segment_duration: SimDuration::from_millis(dur_ms),
            segment_count: count,
            representations,
        })
    }
}

fn xml_escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('"', "&quot;")
}

/// Value of `name="..."` inside the first `<element ...>` tag.
fn attr(text: &str, element: &str, name: &str) -> Option<String> {
    let open = format!("<{element} ");
    let start = text.find(&open)?;
    let tag_end = text[start..].find('>')? + start;
    let tag = &text[start..tag_end];
    let key = format!("{name}=\"");
    let vstart = tag.find(&key)? + key.len();
    let vend = tag[vstart..].find('"')? + vstart;
    Some(tag[vstart..vend].to_string())
}

/// Text content of `<element>...</element>` inside `body`.
fn element_text<'a>(body: &'a str, element: &str) -> Option<&'a str> {
    let open = format!("<{element}>");
    let close = format!("</{element}>");
    let s = body.find(&open)? + open.len();
    let e = body.find(&close)?;
    (e >= s).then(|| &body[s..e])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_quo_manifest_has_no_sizes() {
        let m = Manifest::from_video(&Video::big_buck_bunny());
        assert_eq!(m.segment_count, 150);
        assert_eq!(m.representations.len(), 5);
        // Size hint falls back to bandwidth × duration — the §5.1 gap.
        let hint = m.size_hint(0, 4);
        let nominal = Rate::from_mbps_f64(3.94).bytes_in(SimDuration::from_secs(4));
        assert_eq!(hint, nominal);
        assert_eq!(m.representation_bytes(4), None);
    }

    #[test]
    fn sized_manifest_matches_the_video_exactly() {
        let v = Video::big_buck_bunny();
        let m = Manifest::from_video_with_sizes(&v);
        for i in [0usize, 7, 149] {
            for lvl in 0..v.n_levels() {
                assert_eq!(m.size_hint(i, lvl), v.chunk_size(i, lvl));
            }
        }
        assert_eq!(m.representation_bytes(4), Some(v.total_bytes_at(4)));
    }

    #[test]
    fn xml_round_trip_without_sizes() {
        let m = Manifest::from_video(&Video::tears_of_steel());
        let xml = m.to_xml();
        assert!(xml.contains("<MPD title=\"Tears of Steel\""));
        let back = Manifest::from_xml(&xml).unwrap();
        assert_eq!(m, back);
    }

    #[test]
    fn xml_round_trip_with_sizes() {
        let v = Video::new("tiny", &[1.0, 2.0], SimDuration::from_secs(2), 5);
        let m = Manifest::from_video_with_sizes(&v);
        let xml = m.to_xml();
        assert!(xml.contains("<SegmentSizes>"));
        let back = Manifest::from_xml(&xml).unwrap();
        assert_eq!(m, back);
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        assert!(Manifest::from_xml("<MPD>").is_err());
        let missing_reps = "<?xml version=\"1.0\"?>\n<MPD title=\"x\" \
             segmentDurationMs=\"4000\" segmentCount=\"3\">\n</MPD>\n";
        assert!(Manifest::from_xml(missing_reps)
            .unwrap_err()
            .contains("no representations"));
        let wrong_count = "<?xml version=\"1.0\"?>\n<MPD title=\"x\" \
             segmentDurationMs=\"4000\" segmentCount=\"3\">\n  <AdaptationSet>\n    \
             <Representation id=\"0\" bandwidth=\"1000\">\n      \
             <SegmentSizes>1 2</SegmentSizes>\n    </Representation>\n  \
             </AdaptationSet>\n</MPD>\n";
        assert!(Manifest::from_xml(wrong_count)
            .unwrap_err()
            .contains("2 sizes for 3 segments"));
        let unsorted = "<?xml version=\"1.0\"?>\n<MPD title=\"x\" \
             segmentDurationMs=\"4000\" segmentCount=\"1\">\n  <AdaptationSet>\n    \
             <Representation id=\"0\" bandwidth=\"2000\"/>\n    \
             <Representation id=\"1\" bandwidth=\"1000\"/>\n  \
             </AdaptationSet>\n</MPD>\n";
        assert!(Manifest::from_xml(unsorted)
            .unwrap_err()
            .contains("ascending"));
    }

    #[test]
    fn titles_are_escaped() {
        let v = Video::new("A \"<B>\" & C", &[1.0], SimDuration::from_secs(4), 2);
        let m = Manifest::from_video(&v);
        let xml = m.to_xml();
        assert!(xml.contains("A &quot;&lt;B>&quot; &amp; C"));
    }

    #[test]
    fn size_hint_error_vs_truth_motivates_the_papers_advocacy() {
        // Quantify §5.1's point: without sizes, the rate-based deadline
        // would be computed from the nominal size, which misses the VBR
        // wobble by up to the spread (±25% here).
        let v = Video::big_buck_bunny();
        let plain = Manifest::from_video(&v);
        let max_err = (0..v.n_chunks())
            .map(|i| {
                let truth = v.chunk_size(i, 4) as f64;
                let hint = plain.size_hint(i, 4) as f64;
                (hint - truth).abs() / truth
            })
            .fold(0.0f64, f64::max);
        assert!(
            max_err > 0.10,
            "VBR makes the nominal hint meaningfully wrong: {max_err:.2}"
        );
    }
}
