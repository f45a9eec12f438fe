//! Differential test for the typed script hosts.
//!
//! Flame modules and scenario scripts each run against one typed host, a
//! single `match` over the binding names, behind a `GatedHost` that enforces
//! a `static` table of `(binding, capability)` pairs. They replace
//! closure-table hosts: an `FnHost` with one boxed closure per binding over
//! `Rc` snapshots of the inputs, gated by a name→capability map built for
//! every run. Those hosts are kept below as the reference, and the typed
//! hosts must agree with them:
//!
//! - every module binding, called directly over seeded random
//!   `ModuleInputs` and capability sets with well- and ill-typed arguments
//!   (plus names nothing defines), returns the same value or error and
//!   queues the same effects; the v1 module sources run on the VM to the
//!   same outcome, fuel and memory;
//! - seeded scenario scripts over small worlds (bricked hosts, live and
//!   taken-down domains, `scan_files` suffixes that span the `host:` prefix)
//!   give the same report or fault, the same trace feed and the same host
//!   running states;
//! - both capability tables are pinned binding by binding.
//!
//! One divergence is intended: the reference `record_audio` wraps durations
//! above `u32::MAX`, the typed host rejects them, so the generated durations
//! stay at or below `u32::MAX`.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use malsim::error::Error;
use malsim::export;
use malsim::scenario::ScenarioBuilder;
use malsim::script_api::{self, ScriptEffect, ScriptManifest, ScriptRunReport};
use malsim::sweep::ScriptFaultInfo;
use malsim_kernel::time::SimTime;
use malsim_kernel::trace::TraceCategory;
use malsim_malware::flame::modules::{self, ModuleEffect, ModuleInputs, MODULE_BINDINGS, MODULE_NAMES};
use malsim_malware::world::{World, WorldSim};
use malsim_net::addr::{Domain, Ipv4};
use malsim_net::dns::Registrant;
use malsim_os::fs::FileData;
use malsim_os::path::WinPath;
use malsim_script::cap::{Capability, CapabilitySet};
use malsim_script::compiler::compile;
use malsim_script::error::RunScriptError;
use malsim_script::fuzz::FuzzRng;
use malsim_script::value::Value;
use malsim_script::vm::{FnHost, HostEnv, Vm, VmLimits};

/// Seeded module-input sets compared per run.
const MODULE_SEEDS: u64 = 300;
/// Seeded scenario worlds compared per run.
const SCRIPT_SEEDS: u64 = 200;

/// Every module binding with the capability it must demand.
const MODULE_TABLE: [(&str, Capability); 17] = [
    ("sysinfo", Capability::Recon),
    ("av_event", Capability::Recon),
    ("screenshot", Capability::Recon),
    ("go_quiet", Capability::Recon),
    ("list_files", Capability::FsScan),
    ("is_approved", Capability::FsScan),
    ("summarized", Capability::FsScan),
    ("uploaded", Capability::FsScan),
    ("exfil_sysinfo", Capability::Exfil),
    ("exfil_summary", Capability::Exfil),
    ("exfil_content", Capability::Exfil),
    ("has_microphone", Capability::Audio),
    ("record_audio", Capability::Audio),
    ("beacon", Capability::Bluetooth),
    ("bt_scan", Capability::Bluetooth),
    ("bt_harvest", Capability::Bluetooth),
    ("wipe_self", Capability::Detonate),
];

/// The gated scenario bindings, each with a well-typed call.
const SCRIPT_TABLE: [(&str, Capability, &str); 5] = [
    ("scan_files", Capability::FsScan, "scan_files(\".ini\")"),
    ("net_dial", Capability::NetDial, "net_dial(\"update.example.com\")"),
    ("usb_write", Capability::UsbWrite, "usb_write(\"e:\\\\~wtr4132.tmp\")"),
    ("exfil", Capability::Exfil, "exfil(\"ws-0000:c:\\\\a.docx\")"),
    ("detonate", Capability::Detonate, "detonate(\"ws-0000\")"),
];

// ---------------------------------------------------------------------------
// The reference: closure-table hosts behind a per-run name→capability map.
// ---------------------------------------------------------------------------

/// The reference gate: an `FnHost` behind a name→capability map.
struct MapGate {
    inner: FnHost<'static>,
    granted: CapabilitySet,
    required: HashMap<String, Capability>,
}

impl MapGate {
    fn new(inner: FnHost<'static>, granted: CapabilitySet) -> Self {
        MapGate { inner, granted, required: HashMap::new() }
    }

    fn require(mut self, name: impl Into<String>, cap: Capability) -> Self {
        self.required.insert(name.into(), cap);
        self
    }
}

impl HostEnv for MapGate {
    fn call_host(&mut self, name: &str, args: &[Value]) -> Result<Option<Value>, RunScriptError> {
        if let Some(&cap) = self.required.get(name) {
            if !self.granted.allows(cap) {
                return Err(RunScriptError::CapabilityDenied { name: name.to_owned(), capability: cap });
            }
        }
        self.inner.call_host(name, args)
    }
}

fn expect_str(args: &[Value], fname: &str) -> Result<String, RunScriptError> {
    args.first()
        .and_then(Value::as_str)
        .map(str::to_owned)
        .ok_or_else(|| RunScriptError::Host(format!("{fname}(string)")))
}

fn size_of(inputs: &ModuleInputs, path: &str) -> usize {
    inputs.files.iter().find(|(p, _)| p == path).map(|(_, s)| *s).unwrap_or(0)
}

/// The reference module host: one closure per binding.
fn reference_module_host(
    inputs: ModuleInputs,
    granted: CapabilitySet,
) -> (MapGate, Rc<RefCell<Vec<ModuleEffect>>>) {
    let effects: Rc<RefCell<Vec<ModuleEffect>>> = Rc::new(RefCell::new(Vec::new()));
    let mut host = FnHost::new();
    let inputs = Rc::new(inputs);

    {
        let inputs = Rc::clone(&inputs);
        host.register("sysinfo", move |_args| Ok(Value::str(format!("sysinfo:{}", inputs.host_name))));
    }
    {
        let effects = Rc::clone(&effects);
        host.register("exfil_sysinfo", move |_args| {
            effects.borrow_mut().push(ModuleEffect::ExfilSysinfo);
            Ok(Value::Nil)
        });
    }
    {
        let inputs = Rc::clone(&inputs);
        host.register("list_files", move |_args| {
            Ok(Value::list(inputs.files.iter().map(|(p, _)| Value::str(p)).collect()))
        });
    }
    {
        let inputs = Rc::clone(&inputs);
        host.register("is_approved", move |args| {
            let path = expect_str(args, "is_approved")?;
            Ok(Value::Bool(inputs.approved.iter().any(|a| a == &path)))
        });
    }
    {
        let inputs = Rc::clone(&inputs);
        host.register("summarized", move |args| {
            let path = expect_str(args, "summarized")?;
            Ok(Value::Bool(inputs.summarized.iter().any(|a| a == &path)))
        });
    }
    {
        let inputs = Rc::clone(&inputs);
        host.register("uploaded", move |args| {
            let path = expect_str(args, "uploaded")?;
            Ok(Value::Bool(inputs.uploaded.iter().any(|a| a == &path)))
        });
    }
    {
        let inputs = Rc::clone(&inputs);
        let effects = Rc::clone(&effects);
        host.register("exfil_summary", move |args| {
            let path = expect_str(args, "exfil_summary")?;
            let size = size_of(&inputs, &path);
            effects.borrow_mut().push(ModuleEffect::ExfilSummary { path, size });
            Ok(Value::Nil)
        });
    }
    {
        let inputs = Rc::clone(&inputs);
        let effects = Rc::clone(&effects);
        host.register("exfil_content", move |args| {
            let path = expect_str(args, "exfil_content")?;
            let size = size_of(&inputs, &path);
            effects.borrow_mut().push(ModuleEffect::ExfilContent { path, size });
            Ok(Value::Nil)
        });
    }
    {
        let inputs = Rc::clone(&inputs);
        host.register("has_microphone", move |_args| Ok(Value::Bool(inputs.has_microphone)));
    }
    {
        let effects = Rc::clone(&effects);
        host.register("record_audio", move |args| {
            let seconds = args
                .first()
                .and_then(Value::as_int)
                .ok_or_else(|| RunScriptError::Host("record_audio(seconds)".into()))?;
            effects.borrow_mut().push(ModuleEffect::RecordAudio { seconds: seconds.max(0) as u32 });
            Ok(Value::Nil)
        });
    }
    {
        let effects = Rc::clone(&effects);
        host.register("beacon", move |_args| {
            effects.borrow_mut().push(ModuleEffect::BtBeacon);
            Ok(Value::Nil)
        });
    }
    {
        let inputs = Rc::clone(&inputs);
        host.register("bt_scan", move |_args| {
            Ok(Value::list(inputs.bt_devices.iter().map(Value::str).collect()))
        });
    }
    {
        let effects = Rc::clone(&effects);
        host.register("bt_harvest", move |args| {
            let devices = args
                .first()
                .and_then(Value::as_list)
                .ok_or_else(|| RunScriptError::Host("bt_harvest(list)".into()))?
                .iter()
                .map(|v| v.to_string())
                .collect();
            effects.borrow_mut().push(ModuleEffect::BtHarvest { devices });
            Ok(Value::Nil)
        });
    }
    {
        let inputs = Rc::clone(&inputs);
        host.register("av_event", move |_args| match &inputs.av_event {
            Some(e) => Ok(Value::str(e)),
            None => Ok(Value::Nil),
        });
    }
    {
        let effects = Rc::clone(&effects);
        host.register("screenshot", move |args| {
            let event = expect_str(args, "screenshot")?;
            effects.borrow_mut().push(ModuleEffect::Screenshot { event });
            Ok(Value::Nil)
        });
    }
    {
        let effects = Rc::clone(&effects);
        host.register("go_quiet", move |_args| {
            effects.borrow_mut().push(ModuleEffect::GoQuiet);
            Ok(Value::Nil)
        });
    }
    {
        let effects = Rc::clone(&effects);
        host.register("wipe_self", move |_args| {
            effects.borrow_mut().push(ModuleEffect::WipeSelf);
            Ok(Value::Nil)
        });
    }
    let gated = MapGate::new(host, granted)
        .require("sysinfo", Capability::Recon)
        .require("av_event", Capability::Recon)
        .require("screenshot", Capability::Recon)
        .require("go_quiet", Capability::Recon)
        .require("list_files", Capability::FsScan)
        .require("is_approved", Capability::FsScan)
        .require("summarized", Capability::FsScan)
        .require("uploaded", Capability::FsScan)
        .require("exfil_sysinfo", Capability::Exfil)
        .require("exfil_summary", Capability::Exfil)
        .require("exfil_content", Capability::Exfil)
        .require("has_microphone", Capability::Audio)
        .require("record_audio", Capability::Audio)
        .require("beacon", Capability::Bluetooth)
        .require("bt_scan", Capability::Bluetooth)
        .require("bt_harvest", Capability::Bluetooth)
        .require("wipe_self", Capability::Detonate);
    (gated, effects)
}

/// The reference scenario host: eager snapshots of the world behind
/// closures.
fn reference_world_host(world: &World, granted: CapabilitySet) -> (MapGate, Rc<RefCell<Vec<ScriptEffect>>>) {
    let effects: Rc<RefCell<Vec<ScriptEffect>>> = Rc::new(RefCell::new(Vec::new()));
    let mut host = FnHost::new();

    let host_names: Rc<Vec<String>> = Rc::new(world.hosts.iter().map(|(_, h)| h.name().to_owned()).collect());
    let running: Rc<Vec<String>> = Rc::new(
        world.hosts.iter().filter(|(_, h)| h.is_running()).map(|(_, h)| h.name().to_owned()).collect(),
    );
    let files: Rc<Vec<String>> = Rc::new(
        world
            .hosts
            .iter()
            .flat_map(|(_, h)| {
                let name = h.name().to_owned();
                h.fs.iter().map(move |(p, _)| format!("{name}:{}", p.as_str())).collect::<Vec<_>>()
            })
            .collect(),
    );
    let live_domains: Rc<Vec<String>> = Rc::new(
        world.dns.domains().filter(|d| world.dns.resolve(d).is_some()).map(|d| d.to_string()).collect(),
    );

    {
        let running = Rc::clone(&running);
        host.register("hosts", move |_args| Ok(Value::list(running.iter().map(Value::str).collect())));
    }
    {
        let host_names = Rc::clone(&host_names);
        host.register("host_count", move |_args| Ok(Value::Int(host_names.len() as i64)));
    }
    {
        let effects = Rc::clone(&effects);
        host.register("log", move |args| {
            let message = expect_str(args, "log")?;
            effects.borrow_mut().push(ScriptEffect::Log { message });
            Ok(Value::Nil)
        });
    }
    {
        let files = Rc::clone(&files);
        host.register("scan_files", move |args| {
            let ext = expect_str(args, "scan_files")?;
            Ok(Value::list(files.iter().filter(|p| p.ends_with(&ext)).map(Value::str).collect()))
        });
    }
    {
        let live_domains = Rc::clone(&live_domains);
        host.register("net_dial", move |args| {
            let domain = expect_str(args, "net_dial")?;
            Ok(Value::Bool(live_domains.iter().any(|d| d == &domain)))
        });
    }
    {
        let effects = Rc::clone(&effects);
        host.register("usb_write", move |args| {
            let path = expect_str(args, "usb_write")?;
            effects.borrow_mut().push(ScriptEffect::UsbWrite { path });
            Ok(Value::Nil)
        });
    }
    {
        let effects = Rc::clone(&effects);
        host.register("exfil", move |args| {
            let path = expect_str(args, "exfil")?;
            effects.borrow_mut().push(ScriptEffect::Exfil { path });
            Ok(Value::Nil)
        });
    }
    {
        let effects = Rc::clone(&effects);
        host.register("detonate", move |args| {
            let target = expect_str(args, "detonate")?;
            effects.borrow_mut().push(ScriptEffect::Detonate { host: target });
            Ok(Value::Nil)
        });
    }

    let gated = MapGate::new(host, granted)
        .require("scan_files", Capability::FsScan)
        .require("net_dial", Capability::NetDial)
        .require("usb_write", Capability::UsbWrite)
        .require("exfil", Capability::Exfil)
        .require("detonate", Capability::Detonate);
    (gated, effects)
}

fn reference_apply_effects(script_id: &str, effects: &[ScriptEffect], world: &mut World, sim: &mut WorldSim) {
    let actor = format!("script:{script_id}");
    for effect in effects {
        match effect {
            ScriptEffect::UsbWrite { path } => {
                sim.record(TraceCategory::Os, actor.clone(), format!("usb payload staged: {path}"));
            }
            ScriptEffect::Exfil { path } => {
                sim.record(TraceCategory::Exfiltration, actor.clone(), format!("exfiltrated {path}"));
            }
            ScriptEffect::Detonate { host } => {
                let victim = world.hosts.iter().find(|(_, h)| h.name() == host).map(|(id, _)| id);
                match victim {
                    Some(id) => {
                        world.hosts[id].brick();
                        sim.record(TraceCategory::Destruction, actor.clone(), format!("detonated {host}"));
                    }
                    None => {
                        sim.record(
                            TraceCategory::Scenario,
                            actor.clone(),
                            format!("detonate target '{host}' not found"),
                        );
                    }
                }
            }
            ScriptEffect::Log { message } => {
                sim.record(TraceCategory::Scenario, actor.clone(), message.clone());
            }
        }
    }
}

/// `script_api::run_source` over the reference host.
fn reference_run_source(
    source: &str,
    world: &mut World,
    sim: &mut WorldSim,
) -> Result<ScriptRunReport, ScriptFaultInfo> {
    let script_id = ScriptManifest::parse(source).map(|m| m.name).unwrap_or_else(|_| "unnamed.flua".into());
    let compiled = ScriptManifest::parse(source).and_then(|m| compile(source).map(|chunk| (m, chunk)));
    let (manifest, chunk) = compiled.map_err(|e| ScriptFaultInfo {
        script_id: script_id.clone(),
        error: Error::from(e).to_string(),
        fuel_used: 0,
    })?;
    let (mut host, effects) = reference_world_host(world, manifest.granted);
    let mut vm = Vm::new();
    let outcome = vm.run(&chunk, &mut host, manifest.limits);
    drop(host);
    match outcome {
        Ok(out) => {
            let effects = Rc::try_unwrap(effects).expect("host dropped").into_inner();
            reference_apply_effects(&manifest.name, &effects, world, sim);
            Ok(ScriptRunReport {
                script_id: manifest.name.clone(),
                value: out.value,
                fuel_used: out.fuel_used,
                mem_allocated: out.mem_allocated,
                effects,
            })
        }
        Err(e) => Err(ScriptFaultInfo {
            script_id: manifest.name.clone(),
            error: Error::from(e).to_string(),
            fuel_used: vm.last_fuel_used(),
        }),
    }
}

// ---------------------------------------------------------------------------
// Seeded inputs.
// ---------------------------------------------------------------------------

const PATHS: &[&str] = &[
    "c:\\docs\\plan.docx",
    "c:\\cad\\site.dwg",
    "c:\\tmp\\junk.log",
    "c:\\notes\\secret.txt",
    "c:\\finance\\q3.xls",
    "c:\\docs\\brief.pdf",
    "",
];

const DEVICES: &[&str] = &["ceo-phone", "assistant-phone", "car-kit", ""];

fn random_caps(rng: &mut FuzzRng) -> CapabilitySet {
    match rng.below(4) {
        0 => CapabilitySet::none(),
        1 => CapabilitySet::all(),
        _ => Capability::ALL.into_iter().filter(|_| rng.chance(50)).collect(),
    }
}

fn subset(rng: &mut FuzzRng, pool: &[&str], percent: u64) -> Vec<String> {
    pool.iter().filter(|_| rng.chance(percent)).map(|s| (*s).to_owned()).collect()
}

fn random_inputs(rng: &mut FuzzRng) -> ModuleInputs {
    let mut files = Vec::new();
    for path in PATHS {
        if rng.chance(60) {
            files.push(((*path).to_owned(), rng.below(90_000) as usize));
        }
    }
    ModuleInputs {
        host_name: format!("victim-{}", rng.below(100)),
        files,
        approved: subset(rng, PATHS, 30),
        summarized: subset(rng, PATHS, 30),
        uploaded: subset(rng, PATHS, 20),
        has_microphone: rng.chance(50),
        bt_devices: subset(rng, DEVICES, 50),
        av_event: rng.chance(40).then(|| format!("scanner flagged {}", rng.pick(PATHS))),
    }
}

/// One argument list: well-typed for some binding, ill-typed for others.
/// Integers stay at or below `u32::MAX` (see the module docs).
fn random_args(rng: &mut FuzzRng) -> Vec<Value> {
    let one = |rng: &mut FuzzRng| match rng.below(8) {
        0 | 1 => Value::str(rng.pick(PATHS)),
        2 => Value::str(rng.pick(DEVICES)),
        3 => Value::Int(*rng.pick(&[i64::MIN, -1, 0, 1, 60, 3_600, i64::from(u32::MAX)])),
        4 => Value::list(subset(rng, DEVICES, 60).into_iter().map(Value::str).collect()),
        5 => Value::list(vec![Value::Int(7), Value::Bool(true), Value::Nil, Value::str("x")]),
        6 => Value::Bool(rng.chance(50)),
        _ => rng.pick(&[Value::Nil, Value::Num(2.5)]).clone(),
    };
    (0..rng.below(3)).map(|_| one(rng)).collect()
}

fn random_binding(rng: &mut FuzzRng) -> &'static str {
    const UNKNOWN: &[&str] = &["nope", "", "Sysinfo", "log", "len", "hosts", "scan_files"];
    if rng.chance(85) {
        rng.pick(&MODULE_TABLE).0
    } else {
        rng.pick::<&str>(UNKNOWN)
    }
}

// ---------------------------------------------------------------------------
// Flame modules.
// ---------------------------------------------------------------------------

#[test]
fn module_bindings_match_the_closure_table_host() {
    for seed in 0..MODULE_SEEDS {
        let mut rng = FuzzRng::new(seed);
        let inputs = random_inputs(&mut rng);
        let granted = random_caps(&mut rng);
        let (mut typed, ()) = modules::host_env(inputs.clone(), granted);
        let (mut reference, ref_effects) = reference_module_host(inputs, granted);
        for _ in 0..40 {
            let name = random_binding(&mut rng);
            let args = random_args(&mut rng);
            assert_eq!(
                typed.call_host(name, &args),
                reference.call_host(name, &args),
                "seed {seed}: {name}({args:?}) under {granted}"
            );
        }
        assert_eq!(typed.into_inner().effects, *ref_effects.borrow(), "seed {seed}: effects under {granted}");
    }
}

#[test]
fn module_runs_match_the_closure_table_host() {
    for seed in 0..MODULE_SEEDS {
        let mut rng = FuzzRng::new(seed ^ 0x5eed);
        let inputs = random_inputs(&mut rng);
        for name in MODULE_NAMES {
            let granted =
                if rng.chance(50) { modules::module_capabilities(name) } else { random_caps(&mut rng) };
            let chunk = compile(modules::initial_source(name).expect("built-in")).expect("compiles");
            let (mut typed, ()) = modules::host_env(inputs.clone(), granted);
            let (mut reference, ref_effects) = reference_module_host(inputs.clone(), granted);
            let (mut vm_a, mut vm_b) = (Vm::new(), Vm::new());
            let a = vm_a.run(&chunk, &mut typed, VmLimits::default());
            let b = vm_b.run(&chunk, &mut reference, VmLimits::default());
            assert_eq!(a, b, "seed {seed}: {name} under {granted}");
            assert_eq!(vm_a.last_fuel_used(), vm_b.last_fuel_used(), "seed {seed}: {name} fuel");
            assert_eq!(typed.into_inner().effects, *ref_effects.borrow(), "seed {seed}: {name} effects");
        }
    }
}

/// Well-typed arguments for each module binding.
fn module_call_args(name: &str) -> Vec<Value> {
    match name {
        "record_audio" => vec![Value::Int(60)],
        "bt_harvest" => vec![Value::list(vec![Value::str("ceo-phone")])],
        "is_approved" | "summarized" | "uploaded" | "exfil_summary" | "exfil_content" | "screenshot" => {
            vec![Value::str("c:\\docs\\plan.docx")]
        }
        _ => Vec::new(),
    }
}

#[test]
fn module_table_is_pinned_binding_by_binding() {
    let mut listed = MODULE_BINDINGS.to_vec();
    let mut expected = MODULE_TABLE.to_vec();
    listed.sort();
    expected.sort();
    assert_eq!(listed, expected, "MODULE_BINDINGS lists exactly the 17 module bindings");

    for (name, cap) in MODULE_TABLE {
        let args = module_call_args(name);
        let (mut host, ()) = modules::host_env(ModuleInputs::default(), CapabilitySet::none());
        assert_eq!(
            host.call_host(name, &args),
            Err(RunScriptError::CapabilityDenied { name: name.to_owned(), capability: cap }),
            "{name} is denied without {cap}"
        );
        assert!(host.into_inner().effects.is_empty(), "{name}: a denied call queues nothing");

        let (mut host, ()) = modules::host_env(ModuleInputs::default(), CapabilitySet::none().grant(cap));
        assert!(matches!(host.call_host(name, &args), Ok(Some(_))), "{name} runs under {cap} alone");

        let all_but = Capability::ALL.into_iter().filter(|c| *c != cap).collect();
        let (mut host, ()) = modules::host_env(ModuleInputs::default(), all_but);
        assert!(
            matches!(host.call_host(name, &args), Err(RunScriptError::CapabilityDenied { .. })),
            "{name} needs {cap}, not any other grant"
        );
    }
    let (mut host, ()) = modules::host_env(ModuleInputs::default(), CapabilitySet::all());
    assert_eq!(host.call_host("log", &[Value::str("x")]), Ok(None), "modules have no `log`");
}

// ---------------------------------------------------------------------------
// Scenario scripts.
// ---------------------------------------------------------------------------

const DOMAINS: &[&str] = &["update.example.com", "cdn.example.net", "dead.example.org"];

/// A small seeded world: an office LAN with some hosts bricked, extra
/// files (one with a non-ASCII name) and live and taken-down domains.
fn seeded_world(seed: u64) -> (World, WorldSim) {
    let mut rng = FuzzRng::new(seed);
    let (mut world, sim) = ScenarioBuilder::new(seed).office_lan(1 + rng.below(4) as usize);
    let ids: Vec<_> = world.hosts.iter().map(|(id, _)| id).collect();
    for &id in &ids {
        if rng.chance(20) {
            world.hosts[id].brick();
        }
        if rng.chance(50) {
            let path =
                WinPath::new(*rng.pick(&["c:\\docs\\plan.docx", "c:\\cad\\site.dwg", "c:\\x\\résumé.docx"]));
            world.hosts[id]
                .fs
                .write(&path, FileData::Bytes(b"doc".to_vec()), SimTime::EPOCH)
                .expect("writable");
        }
    }
    for (i, domain) in DOMAINS.iter().enumerate() {
        if rng.chance(70) {
            let registrant = Registrant { name: "x".into(), country: "PA".into(), registrar: "r".into() };
            world.dns.register(Domain::new(domain), Ipv4::new(203, 0, 113, i as u8), registrant);
            if rng.chance(30) {
                world.dns.take_down(&Domain::new(domain));
            }
        }
    }
    (world, sim)
}

/// Every `host:path` string the world holds, in scan order.
fn all_files(world: &World) -> Vec<String> {
    world
        .hosts
        .iter()
        .flat_map(|(_, h)| h.fs.iter().map(move |(p, _)| format!("{}:{}", h.name(), p.as_str())))
        .collect()
}

/// A `scan_files` suffix: plain extensions, empty, and suffixes of real
/// entries that reach past the path into `:` and the host name.
fn random_suffix(rng: &mut FuzzRng, files: &[String]) -> String {
    match rng.below(4) {
        0 => (*rng.pick(&[".ini", ".dll", ".docx", "", ":", "plan.docx", "ws-0000:", "DOCX"])).to_owned(),
        _ if files.is_empty() => ".ini".to_owned(),
        _ => {
            let full = rng.pick(files);
            let (host, path) = full.split_once(':').expect("host:path");
            let chars: Vec<char> = full.chars().collect();
            let spanning = path.chars().count() + 1 + rng.below(host.len() as u64 + 1) as usize;
            let take = if rng.chance(75) { spanning } else { rng.below(chars.len() as u64 + 1) as usize };
            chars[chars.len() - take.min(chars.len())..].iter().collect()
        }
    }
}

fn quoted(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn random_statement(rng: &mut FuzzRng, files: &[String], hosts: &[String]) -> String {
    let host = || -> String { hosts.first().cloned().unwrap_or_default() };
    match rng.below(14) {
        0 => format!("log({})", quoted(&format!("step {}", rng.below(10)))),
        1 => (*rng.pick(&["log(1)", "log()", "log(nil, 2)"])).to_owned(),
        2 => "let hs = hosts()\nlog(str(len(hs)))".to_owned(),
        3 => "log(str(host_count()))".to_owned(),
        4 | 5 => {
            format!("let hits = scan_files({})\nlog(str(len(hits)))", quoted(&random_suffix(rng, files)))
        }
        6 => (*rng.pick(&["scan_files(3)", "scan_files()", "scan_files([\".ini\"])"])).to_owned(),
        7 => {
            let domain =
                rng.pick(&["update.example.com", "UPDATE.example.com", "dead.example.org", "nx.example"]);
            format!("if net_dial({}) then log(\"up\") end", quoted(domain))
        }
        8 => format!("usb_write({})", quoted(rng.pick::<&str>(PATHS))),
        9 => format!("for f in scan_files({}) do exfil(f) end", quoted(&random_suffix(rng, files))),
        10 => format!("exfil({})", rng.pick(&["nil", "\"ws-0000:c:\\\\a.docx\"", "[1]"])),
        11 => format!("detonate({})", quoted(&if rng.chance(70) { host() } else { "ghost".to_owned() })),
        12 => "detonate(hosts()[0])".to_owned(),
        _ => (*rng.pick(&["frobnicate()", "wipe_self()", "detonate()"])).to_owned(),
    }
}

fn random_script(rng: &mut FuzzRng, seed: u64, files: &[String], hosts: &[String]) -> String {
    let grants: Vec<&str> = random_caps(rng).iter().map(Capability::label).collect();
    let mut source = format!("#! name: diff-{seed}\n#! grant: {}\n", grants.join(" "));
    if rng.chance(15) {
        source.push_str(&format!("#! fuel: {}\n", 20 + rng.below(400)));
    }
    if rng.chance(10) {
        source.push_str(&format!("#! memory: {}\n", 64 + rng.below(2_000)));
    }
    for _ in 0..1 + rng.below(6) {
        source.push_str(&random_statement(rng, files, hosts));
        source.push('\n');
    }
    let ext = quoted(&random_suffix(rng, files));
    source.push_str(&format!(
        "return [hosts(), host_count(), len(scan_files({ext})), net_dial(\"cdn.example.net\")]\n"
    ));
    source
}

/// Everything a script run can change or report.
#[derive(Debug, PartialEq)]
struct Observed {
    result: Result<ScriptRunReport, ScriptFaultInfo>,
    feed: String,
    running: Vec<bool>,
}

fn observe(
    seed: u64,
    source: &str,
    run: fn(&str, &mut World, &mut WorldSim) -> Result<ScriptRunReport, ScriptFaultInfo>,
) -> Observed {
    let (mut world, mut sim) = seeded_world(seed);
    let result = run(source, &mut world, &mut sim);
    Observed {
        result,
        feed: export::jsonl(&sim.trace, &sim.spans),
        running: world.hosts.iter().map(|(_, h)| h.is_running()).collect(),
    }
}

#[test]
fn scenario_scripts_match_the_closure_table_host() {
    let (mut completed, mut faulted) = (0, 0);
    for seed in 0..SCRIPT_SEEDS {
        let (world, _) = seeded_world(seed);
        let files = all_files(&world);
        let hosts: Vec<String> = world.hosts.iter().map(|(_, h)| h.name().to_owned()).collect();
        let mut rng = FuzzRng::new(seed.wrapping_mul(31) + 1);
        for _ in 0..4 {
            let source = random_script(&mut rng, seed, &files, &hosts);
            let typed = observe(seed, &source, script_api::run_source);
            let reference = observe(seed, &source, reference_run_source);
            assert_eq!(typed, reference, "seed {seed}:\n{source}");
            if typed.result.is_ok() {
                completed += 1;
            } else {
                faulted += 1;
            }
        }
    }
    assert!(
        completed > 100 && faulted > 100,
        "both outcomes are exercised: {completed} ok, {faulted} faults"
    );
}

#[test]
fn scan_files_suffixes_may_span_the_host_prefix() {
    let (world, _) = seeded_world(3);
    let files = all_files(&world);
    let target = files.iter().find(|f| f.ends_with("desktop.ini")).expect("fresh profiles carry desktop.ini");
    let (host, path) = target.split_once(':').expect("host:path");
    for ext in [format!("{}:{path}", &host[host.len() - 2..]), format!(":{path}"), target.clone()] {
        let source = format!("#! grant: fs_scan\nreturn scan_files({})", quoted(&ext));
        let typed = observe(3, &source, script_api::run_source);
        assert_eq!(typed, observe(3, &source, reference_run_source), "{ext}");
        let hits = typed.result.expect("runs").value;
        let hits = hits.as_list().expect("a list");
        assert!(hits.contains(&Value::str(target)), "{ext} matches {target}");
        assert!(hits.iter().all(|h| h.as_str().is_some_and(|h| h.ends_with(&ext))), "{ext}");
    }
}

#[test]
fn scenario_table_is_pinned_binding_by_binding() {
    for (name, cap, call) in SCRIPT_TABLE {
        let run = |grant: &str| {
            let (mut world, mut sim) = seeded_world(1);
            script_api::run_source(&format!("#! grant: {grant}\n{call}"), &mut world, &mut sim)
        };
        let denied = run("").expect_err("denied without a grant");
        let want = Error::from(RunScriptError::CapabilityDenied { name: name.to_owned(), capability: cap });
        assert_eq!(denied.error, want.to_string(), "{name} is denied without {cap}");
        assert!(run(cap.label()).is_ok(), "{name} runs under {cap} alone");
        let all_but: CapabilitySet = Capability::ALL.into_iter().filter(|c| *c != cap).collect();
        let fault = run(&all_but.to_string()).expect_err("only its own capability unlocks it");
        assert_eq!(fault.error, want.to_string(), "{name} needs {cap}, not any other grant");
    }
    for call in ["hosts()", "host_count()", "log(\"ungated\")"] {
        let (mut world, mut sim) = seeded_world(1);
        let report = script_api::run_source(&format!("#! grant:\nreturn {call}"), &mut world, &mut sim);
        assert!(report.is_ok(), "{call} is ungated: {report:?}");
    }
}
