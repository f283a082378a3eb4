#include "dataset/value_pool.h"

#include <array>
#include <cstdio>

#include "common/string_util.h"

namespace codes {

namespace {

constexpr std::array kGivenNames = {
    "Sarah",  "James",  "Maria",   "David",   "Elena",  "Tomas",
    "Aiko",   "Carlos", "Ingrid",  "Noah",    "Priya",  "Liam",
    "Sofia",  "Mateo",  "Hannah",  "Omar",    "Lucia",  "Ethan",
    "Amara",  "Victor", "Nadia",   "Oscar",   "Freya",  "Hugo",
    "Isabel", "Jonas",  "Keiko",   "Leon",    "Mira",   "Pavel",
    "Rosa",   "Stefan", "Tara",    "Umar",    "Vera",   "Walter",
    "Xenia",  "Yusuf",  "Zoe",     "Anders",  "Bianca", "Cedric",
    "Daria",  "Emil",   "Farah",   "Gustav",  "Helga",  "Igor"};

constexpr std::array kSurnames = {
    "Martinez", "Johnson",  "Novak",    "Silva",    "Kowalski", "Tanaka",
    "Petrov",   "Andersen", "Okafor",   "Rossi",    "Dubois",   "Schmidt",
    "Larsen",   "Moreau",   "Vargas",   "Keller",   "Lindgren", "Barros",
    "Castillo", "Dimitrov", "Eriksson", "Fischer",  "Gomez",    "Horvat",
    "Ivanova",  "Janssen",  "Kaur",     "Lombardi", "Mbeki",    "Nielsen",
    "Ortega",   "Popescu",  "Quinn",    "Ramirez",  "Sato",     "Toth",
    "Ueda",     "Villanueva", "Weber",  "Xu",       "Yamada",   "Zhang"};

constexpr std::array kCities = {
    "Jesenik",   "Porto",     "Kyoto",     "Bergen",   "Valencia",
    "Gdansk",    "Salzburg",  "Cork",      "Tampere",  "Ghent",
    "Lausanne",  "Brno",      "Aarhus",    "Bilbao",   "Cluj",
    "Dresden",   "Eindhoven", "Florence",  "Graz",     "Haarlem",
    "Innsbruck", "Jena",      "Kaunas",    "Leipzig",  "Malmo",
    "Nantes",    "Ostrava",   "Pilsen",    "Quimper",  "Riga",
    "Seville",   "Turku",     "Utrecht",   "Verona",   "Wroclaw",
    "York",      "Zagreb",    "Antwerp",   "Bologna",  "Cadiz"};

constexpr std::array kCountries = {
    "USA",       "Canada",  "France",  "Germany", "Japan",   "Brazil",
    "Spain",     "Italy",   "Poland",  "Norway",  "Sweden",  "Denmark",
    "Portugal",  "Austria", "Ireland", "Finland", "Belgium", "Netherlands",
    "Czechia",   "Croatia", "Latvia",  "Greece",  "Mexico",  "Chile",
    "Argentina", "India",   "Kenya",   "Egypt",   "Vietnam", "Korea"};

constexpr std::array kCompanyHeads = {
    "Northwind", "Redwood", "Bluepeak",  "Ironclad", "Silverline",
    "Granite",   "Harbor",  "Summit",    "Beacon",   "Cobalt",
    "Falcon",    "Juniper", "Larkspur",  "Meridian", "Nimbus",
    "Orchard",   "Pinnacle", "Quartz",   "Riverton", "Sable"};

constexpr std::array kCompanyTails = {
    "Capital", "Holdings", "Industries", "Partners", "Systems",
    "Logistics", "Bank",   "Insurance",  "Ventures", "Group"};

constexpr std::array kTitleWords = {
    "Sunrise", "Moonlight", "Harbor",   "Echoes",   "Horizon", "Ember",
    "Cascade", "Drift",     "Lantern",  "Meadow",   "Nocturne", "Orbit",
    "Prism",   "Quarry",    "Rapture",  "Solstice", "Tides",    "Umbra",
    "Voyage",  "Wander",    "Zephyr",   "Aurora",   "Breeze",   "Crystal",
    "Dawn",    "Evergreen", "Firefly",  "Glacier",  "Harvest",  "Island"};

constexpr std::array kWords = {
    "rock",    "jazz",    "pop",      "folk",     "classical", "metal",
    "economy", "premium", "standard", "deluxe",   "basic",     "advanced",
    "red",     "blue",    "green",    "yellow",   "black",     "white",
    "north",   "south",   "east",     "west",     "central",   "coastal",
    "annual",  "monthly", "weekly",   "daily",    "active",    "closed"};

}  // namespace

sql::DataType TypeOfKind(ValueKind kind) {
  switch (kind) {
    case ValueKind::kYear:
    case ValueKind::kSmallInt:
    case ValueKind::kBigInt:
    case ValueKind::kSequentialId:
      return sql::DataType::kInteger;
    case ValueKind::kMoney:
    case ValueKind::kRate:
      return sql::DataType::kReal;
    default:
      return sql::DataType::kText;
  }
}

sql::Value DrawValue(ValueKind kind, int row, Rng& rng) {
  switch (kind) {
    case ValueKind::kPersonName: {
      std::string name = std::string(rng.Pick(std::vector<std::string>(
                             kGivenNames.begin(), kGivenNames.end()))) +
                         " " +
                         std::string(rng.Pick(std::vector<std::string>(
                             kSurnames.begin(), kSurnames.end())));
      return sql::Value(std::move(name));
    }
    case ValueKind::kGivenName:
      return sql::Value(std::string(
          kGivenNames[rng.Index(kGivenNames.size())]));
    case ValueKind::kCity:
      return sql::Value(std::string(kCities[rng.Index(kCities.size())]));
    case ValueKind::kCountry:
      return sql::Value(std::string(kCountries[rng.Index(kCountries.size())]));
    case ValueKind::kCompany: {
      std::string name =
          std::string(kCompanyHeads[rng.Index(kCompanyHeads.size())]) + " " +
          std::string(kCompanyTails[rng.Index(kCompanyTails.size())]);
      return sql::Value(std::move(name));
    }
    case ValueKind::kTitleWords: {
      int words = static_cast<int>(rng.UniformInt(1, 3));
      std::string title;
      for (int i = 0; i < words; ++i) {
        if (i > 0) title += " ";
        title += kTitleWords[rng.Index(kTitleWords.size())];
      }
      return sql::Value(std::move(title));
    }
    case ValueKind::kWord:
      return sql::Value(std::string(kWords[rng.Index(kWords.size())]));
    case ValueKind::kYear:
      return sql::Value(rng.UniformInt(1950, 2023));
    case ValueKind::kSmallInt:
      return sql::Value(rng.UniformInt(0, 100));
    case ValueKind::kBigInt:
      return sql::Value(rng.UniformInt(0, 1000000));
    case ValueKind::kMoney: {
      double cents = static_cast<double>(rng.UniformInt(1000, 9999999));
      return sql::Value(cents / 100.0);
    }
    case ValueKind::kRate:
      return sql::Value(rng.UniformDouble());
    case ValueKind::kCode: {
      char buf[16];
      std::snprintf(buf, sizeof(buf), "%c%c-%04d",
                    static_cast<char>('A' + rng.UniformInt(0, 25)),
                    static_cast<char>('A' + rng.UniformInt(0, 25)),
                    static_cast<int>(rng.UniformInt(0, 9999)));
      return sql::Value(std::string(buf));
    }
    case ValueKind::kDate: {
      char buf[16];
      std::snprintf(buf, sizeof(buf), "%04d-%02d-%02d",
                    static_cast<int>(rng.UniformInt(1990, 2023)),
                    static_cast<int>(rng.UniformInt(1, 12)),
                    static_cast<int>(rng.UniformInt(1, 28)));
      return sql::Value(std::string(buf));
    }
    case ValueKind::kGender:
      return sql::Value(std::string(rng.Bernoulli(0.5) ? "F" : "M"));
    case ValueKind::kYesNo:
      return sql::Value(std::string(rng.Bernoulli(0.5) ? "yes" : "no"));
    case ValueKind::kEmail: {
      std::string user = ToLower(
          std::string(kGivenNames[rng.Index(kGivenNames.size())]));
      return sql::Value(user + std::to_string(rng.UniformInt(1, 99)) +
                        "@example.com");
    }
    case ValueKind::kPhone: {
      char buf[16];
      std::snprintf(buf, sizeof(buf), "555-%04d",
                    static_cast<int>(rng.UniformInt(0, 9999)));
      return sql::Value(std::string(buf));
    }
    case ValueKind::kSequentialId:
      return sql::Value(static_cast<int64_t>(row + 1));
  }
  return sql::Value();
}

}  // namespace codes
