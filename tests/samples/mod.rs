//! A compact full-level capture for the suites that compare whole
//! per-nanosecond timelines: a [`TraceSink`] that keeps only the
//! [`TraceEvent::Sample`]s, as 16-byte tuples rather than whole
//! 96-byte events, so a whole run's stream stays cheap to hold and
//! compare.

use std::sync::{Arc, Mutex};

use vsv::{Mode, TraceEvent, TraceSink};

/// One sampled nanosecond: `(at, mode, vdd_mv, edge)`, the fields of a
/// [`TraceEvent::Sample`].
pub type Sample = (u64, Mode, u32, bool);

/// A shared sample log: attach [`SampleLog::sink`] at
/// [`vsv::TraceLevel::Full`], detach it (`take_event_sink` flushes it
/// into the log), then [`SampleLog::take`] the samples.
#[derive(Debug, Clone, Default)]
pub struct SampleLog(Arc<Mutex<Vec<Sample>>>);

impl SampleLog {
    /// A sink that buffers samples and appends them to this log when
    /// flushed.
    pub fn sink(&self) -> Box<dyn TraceSink> {
        Box::new(SampleSink {
            log: self.clone(),
            buf: Vec::new(),
        })
    }

    /// Takes the samples flushed so far, in order.
    pub fn take(&self) -> Vec<Sample> {
        std::mem::take(&mut *self.0.lock().expect("no sink panicked"))
    }
}

#[derive(Debug)]
struct SampleSink {
    log: SampleLog,
    buf: Vec<Sample>,
}

impl TraceSink for SampleSink {
    fn record(&mut self, event: &TraceEvent) {
        if let TraceEvent::Sample {
            at,
            mode,
            vdd_mv,
            edge,
        } = *event
        {
            self.buf.push((at, mode, vdd_mv, edge));
        }
    }

    fn flush(&mut self) {
        let mut log = self.log.0.lock().expect("no reader panicked");
        log.append(&mut self.buf);
    }
}
