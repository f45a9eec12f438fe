//! # malsim-script
//!
//! "Flua" — a small, embeddable scripting language with a bytecode VM, built
//! for the `malsim` simulation workspace.
//!
//! The paper singles out Flame's most unusual design property: large parts of
//! its logic shipped as Lua scripts running on an embedded interpreter, so
//! the operators could push updated modules from the C&C at any time. To
//! model that faithfully, `malsim`'s Flame modules are *actual scripts*
//! executed by this VM, and "module updates" replace the script text at
//! runtime.
//!
//! Pipeline: [`lexer`] → [`parser`] → [`compiler`] → [`vm`].
//!
//! Language summary: `let`/assignment, `if`/`elseif`/`else`, `while`,
//! `for … in list`, `break`, first-class-ish named functions (`fn`),
//! integers/floats/strings/bools/`nil`/lists, short-circuit `and`/`or`,
//! string concat `..`, comments with `#`. Builtins: `len`, `str`, `push`,
//! `contains`, `range`. Everything else resolves to host functions supplied
//! through [`vm::HostEnv`] — that is the *only* way a script can touch the
//! simulated world.
//!
//! Execution is deterministic and budgeted ([`vm::VmLimits`]): fuel per
//! instruction (with a surcharge on host calls), a memory cap on string/list
//! allocation, and a parser nesting limit — a hostile script cannot stall,
//! OOM, or crash the simulation; the worst it gets is a typed
//! [`error::RunScriptError`]. Sensitive host functions can additionally be
//! gated behind per-script capabilities ([`cap::GatedHost`]), and
//! [`fuzz::hostile_script`] mass-produces adversarial scripts to prove the
//! sandbox holds.
//!
//! Hosts: the simulator gives each script surface one typed host — a
//! `match` on the binding name — wrapped in a [`cap::GatedHost`] that
//! enforces a `static` table of `(binding, capability)` pairs. The
//! closure-map [`vm::FnHost`] is the fake host for tests and the example
//! below; [`vm::expect_str`] is the shared string-argument check.
//!
//! # Examples
//!
//! ```
//! use malsim_script::prelude::*;
//!
//! // A miniature "file scanner" module in Flua.
//! let src = r#"
//!     let interesting = []
//!     for f in list_files() do
//!         if contains(f, ".docx") or contains(f, ".dwg") then
//!             interesting = push(interesting, f)
//!         end
//!     end
//!     return interesting
//! "#;
//! let chunk = compile(src)?;
//! let mut vm = Vm::new();
//! let mut host = FnHost::new();
//! host.register("list_files", |_args| {
//!     Ok(Value::list(vec![
//!         Value::str("notes.txt"),
//!         Value::str("design.dwg"),
//!         Value::str("plan.docx"),
//!     ]))
//! });
//! let out = vm.run(&chunk, &mut host, VmLimits::default()).unwrap();
//! assert_eq!(out.value.as_list().unwrap().len(), 2);
//! # Ok::<(), malsim_script::error::CompileScriptError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod cap;
pub mod compiler;
pub mod error;
pub mod fuzz;
pub mod lexer;
pub mod parser;
pub mod value;
pub mod vm;

/// Commonly used items.
pub mod prelude {
    pub use crate::cap::{Capability, CapabilitySet, GatedHost};
    pub use crate::compiler::{compile, Chunk};
    pub use crate::error::{CompileScriptError, RunScriptError};
    pub use crate::value::Value;
    pub use crate::vm::{FnHost, HostEnv, NoHost, RunOutcome, Vm, VmLimits};
}
