//! L007 fixture: panic and allocation sinks reachable from `Engine::run`
//! and from the monomorphized `Engine::run_events` root (reached only
//! through a const-generic turbofish call, which the parser must record),
//! and an alive structure's `refresh`, reached only through the loop's
//! bounded type parameter `S: Set`. `completed.push` is exempt
//! (EngineBuffers-donated state); the other six sites must each produce
//! one diagnostic.

pub struct JobArena {
    remaining: Vec<f64>,
}

pub struct EngineBuffers {
    jobs: JobArena,
    completed: Vec<u64>,
}

pub struct Engine {
    jobs: JobArena,
    completed: Vec<u64>,
    trace: Vec<u64>,
}

/// An alive structure, as the event loop drives it.
pub trait Set {
    fn of(engine: &Engine) -> &Self;
    fn refresh(&self);
}

pub struct Levels;

impl Set for Levels {
    fn of(_: &Engine) -> &Self {
        &Levels
    }

    fn refresh(&self) {
        // Reachable only via `S::of(..).refresh()` in `run_events`: flags.
        unreachable!("a level stack never refreshes");
    }
}

impl Engine {
    pub fn run(&mut self) {
        self.step();
    }

    pub fn run_loop(&mut self) {
        self.run_events::<Levels, true>();
    }

    fn run_events<S: Set, const V: bool>(&mut self) {
        guard_capacity::<u64>(self.trace.len());
        S::of(self).refresh();
    }

    pub fn step(&mut self) {
        self.completed.push(1); // donated: exempt
        self.trace.push(2); // not an EngineBuffers field: flags
        grow();
    }
}

fn grow() {
    let mut log = Vec::new();
    log.push(9u64); // local buffer: flags
    if first(&log) == 0 {
        panic!("empty event log"); // flags
    }
}

fn first(xs: &[u64]) -> u64 {
    xs[0] // unchecked indexing, not a donated lane: flags
}

fn guard_capacity<T>(n: usize) {
    // Reachable only via `run_events`'s turbofish call: flags.
    assert!(n < 1_000_000, "arena overflow");
}
