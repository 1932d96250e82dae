//! A synthetic checkpointing application for the node agent, the smoke
//! test, and the benches: `vars` named buffers of `var_bytes` each,
//! mutating `dirty_per_tick` of them per tick in a rotating window — a
//! knob-for-knob match of the checkpoint bench's locality model, but
//! running as a real [`FtApplication`] under a real FTIM.

use std::iter;
use std::sync::Arc;
use std::time::Duration;

use comsim::buf::Bytes;
use ds_sim::prelude::SimDuration;
use oftt::checkpoint::{VarSet, VarStore};
use oftt::ftim::{FtApplication, FtCtx};
use parking_lot::Mutex;

/// Shape of the synthetic state.
#[derive(Debug, Clone, Copy)]
pub struct LoadConfig {
    /// Number of designated variables.
    pub vars: usize,
    /// Bytes per variable.
    pub var_bytes: usize,
    /// Variables mutated per tick.
    pub dirty_per_tick: usize,
    /// Tick period.
    pub tick_period: Duration,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            vars: 64,
            var_bytes: 64,
            dirty_per_tick: 4,
            tick_period: Duration::from_millis(20),
        }
    }
}

/// What the outside world can observe about a [`LoadApp`].
#[derive(Debug, Default, Clone, Copy)]
pub struct LoadView {
    /// Ticks executed while active (survives failover via checkpoint).
    pub ticks: u64,
    /// Whether the app is currently the active copy.
    pub active: bool,
    /// Restores performed.
    pub restores: u64,
}

const TICK: u64 = 1;

/// The synthetic application.
pub struct LoadApp {
    config: LoadConfig,
    /// Variable `i`'s name, built once: every write borrows it.
    names: Vec<String>,
    /// Per-variable version counters; the buffer for var `i` carries its
    /// version in the first 8 bytes (LE), rest constant filler.
    versions: Vec<u64>,
    ticks: u64,
    cursor: usize,
    /// Indices touched since the last `snapshot_dirty`.
    pending: Vec<usize>,
    view: Arc<Mutex<LoadView>>,
}

impl LoadApp {
    /// Creates the app; `view` is shared with the host for assertions.
    pub fn new(config: LoadConfig, view: Arc<Mutex<LoadView>>) -> Self {
        let vars = config.vars.max(1);
        LoadApp {
            names: (0..vars).map(|i| format!("v{i:05}")).collect(),
            versions: vec![0; vars],
            config,
            ticks: 0,
            cursor: 0,
            pending: Vec::new(),
            view,
        }
    }

    /// Variable `i`'s value in one allocation: the filler is collected
    /// straight into the shared buffer (the iterator's exact length lets
    /// the collect allocate once) and the version patched in place, since
    /// the buffer is not yet shared.
    fn var_bytes(&self, i: usize) -> Bytes {
        let mut buf: Arc<[u8]> =
            iter::repeat_n((i & 0xFF) as u8, self.config.var_bytes.max(8)).collect();
        if let Some(head) = Arc::get_mut(&mut buf).and_then(|buf| buf.get_mut(..8)) {
            head.copy_from_slice(&self.versions[i].to_le_bytes());
        }
        Bytes::from(buf)
    }
}

impl FtApplication for LoadApp {
    fn snapshot(&self) -> VarSet {
        let mut image: VarSet = self
            .names
            .iter()
            .enumerate()
            .map(|(i, name)| (name.clone(), self.var_bytes(i)))
            .collect();
        image.insert("ticks".into(), Bytes::from(self.ticks.to_le_bytes()));
        image
    }

    fn snapshot_dirty(&mut self, store: &mut VarStore) {
        // Only the touched window plus the tick counter — the O(write
        // set) walkthrough the delta path exists for. Names are borrowed,
        // so a held variable's write costs only its new buffer.
        for &i in &self.pending {
            store.set(self.names[i].as_str(), self.var_bytes(i));
        }
        self.pending.clear();
        store.set("ticks", Bytes::from(self.ticks.to_le_bytes()));
    }

    fn restore(&mut self, image: &VarSet) {
        if let Some(bytes) = image.get("ticks") {
            if let Ok(raw) = <[u8; 8]>::try_from(bytes.as_slice()) {
                self.ticks = u64::from_le_bytes(raw);
            }
        }
        for (name, version) in self.names.iter().zip(&mut self.versions) {
            if let Some(bytes) = image.get(name) {
                if bytes.len() >= 8 {
                    if let Ok(raw) = <[u8; 8]>::try_from(&bytes.as_slice()[..8]) {
                        *version = u64::from_le_bytes(raw);
                    }
                }
            }
        }
        let mut view = self.view.lock();
        view.ticks = self.ticks;
        view.restores += 1;
    }

    fn on_activate(&mut self, ctx: &mut FtCtx<'_>) {
        {
            let mut view = self.view.lock();
            view.ticks = self.ticks;
            view.active = true;
        }
        let period = SimDuration::from_micros(self.config.tick_period.as_micros() as u64);
        ctx.env().set_timer(period, TICK);
    }

    fn on_deactivate(&mut self, _ctx: &mut FtCtx<'_>) {
        self.view.lock().active = false;
    }

    fn on_app_timer(&mut self, token: u64, ctx: &mut FtCtx<'_>) {
        if token != TICK {
            return;
        }
        self.ticks += 1;
        for _ in 0..self.config.dirty_per_tick.min(self.versions.len()) {
            let i = self.cursor % self.versions.len();
            self.versions[i] += 1;
            self.pending.push(i);
            self.cursor += 1;
        }
        {
            let mut view = self.view.lock();
            view.ticks = self.ticks;
            view.active = true;
        }
        let period = SimDuration::from_micros(self.config.tick_period.as_micros() as u64);
        ctx.env().set_timer(period, TICK);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_and_restore_round_trip_the_counters() {
        let view = Arc::new(Mutex::new(LoadView::default()));
        let config = LoadConfig { vars: 8, var_bytes: 16, ..Default::default() };
        let mut app = LoadApp::new(config, view.clone());
        app.ticks = 42;
        app.versions[3] = 9;
        let image = app.snapshot();
        assert_eq!(image.len(), 9, "8 vars + ticks");

        let mut other = LoadApp::new(config, Arc::new(Mutex::new(LoadView::default())));
        other.restore(&image);
        assert_eq!(other.ticks, 42);
        assert_eq!(other.versions[3], 9);
    }

    #[test]
    fn dirty_walkthrough_covers_only_the_touched_window() {
        let view = Arc::new(Mutex::new(LoadView::default()));
        let config =
            LoadConfig { vars: 100, var_bytes: 16, dirty_per_tick: 5, ..Default::default() };
        let mut app = LoadApp::new(config, view);
        // Simulate two ticks' worth of mutation without a runtime.
        for _ in 0..2 {
            app.ticks += 1;
            for _ in 0..5 {
                let i = app.cursor % app.versions.len();
                app.versions[i] += 1;
                app.pending.push(i);
                app.cursor += 1;
            }
        }
        let mut store = VarStore::new();
        app.snapshot_dirty(&mut store);
        let dirty = store.take_dirty(None);
        assert_eq!(dirty.len(), 11, "10 touched vars + ticks, not all 100");
        assert!(app.pending.is_empty(), "pending set drains per walkthrough");
    }
}
